(** Sequential ATPG by iterated time-frame expansion.

    Given a fault, controllability/observability assumptions on the
    flip-flops (derived by the caller from the fault-free portions of the
    scan chain) and the scan-mode input constraints, the driver unrolls the
    circuit for increasing frame counts and runs {!Podem} on each model
    until a test is found or the frame budget is exhausted.

    A returned test prescribes the initial state of the controllable
    flip-flops and per-frame values for the free primary inputs; the caller
    realizes it as a scan sequence and confirms it by fault simulation. *)

open Fst_logic
open Fst_netlist
open Fst_fault

type test = {
  frames : int;
  init_state : (int * V3.t) list;  (** (flip-flop net, initial value) *)
  pi_frames : (int * V3.t) list array;  (** per frame: (input net, value) *)
}

type result = Seq_test of test | Seq_aborted

type stats = { runs : int; backtracks : int }

(** The unrolled models of one set of flip-flop bounds: for each frame
    count, the {!Unroll.t} and its {!Podem.model}, built on first use and
    then shared by every fault run through {!run_on}. Building costs an
    unroll, a compile and a SCOAP pass, so a caller planning many faults
    on the same bounds (one step-3 group) makes one [models] for all of
    them and drops it with the group. Not safe to share between domains
    while it is still filling. *)
type models

(** [keep] (default true) keeps every frame count's model for later runs.
    A single-fault caller passes [~keep:false], so that only the model in
    use is alive, as in {!run}. *)
val models :
  ?keep:bool ->
  Circuit.t ->
  constraints:(int * V3.t) list ->
  controllable_ff:(int -> bool) ->
  observable_ff:(int -> bool) ->
  models

(** [run_on ms ~fault ~frames_list ~backtrack_limit] is {!run} on the
    shared models [ms]: the same result and statistics as a fresh
    {!run} with the bounds [ms] was made with. *)
val run_on :
  ?should_abort:(unit -> bool) ->
  models ->
  fault:Fault.t ->
  frames_list:int list ->
  backtrack_limit:int ->
  result * stats

(** @param should_abort cooperative abort hook: polled before each frame
    count and between PODEM backtracks, so a tripped wall-clock deadline
    stops the search promptly instead of letting one target run past
    its budget. *)
val run :
  ?should_abort:(unit -> bool) ->
  Circuit.t ->
  constraints:(int * V3.t) list ->
  controllable_ff:(int -> bool) ->
  observable_ff:(int -> bool) ->
  fault:Fault.t ->
  frames_list:int list ->
  backtrack_limit:int ->
  result * stats
