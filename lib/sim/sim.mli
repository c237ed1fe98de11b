(** Three-valued good-machine simulation.

    A {!state} holds one value per net. Primary inputs and flip-flop outputs
    are set explicitly (or by {!clock}); [eval_comb] sweeps gates in
    topological order. All values start at [X], matching an unknown
    power-on state. *)

open Fst_logic
open Fst_netlist

(** A test stimulus: per clock cycle, assignments to nets (usually primary
    inputs). Unassigned nets hold their previous value, starting from [X]. *)
type stimulus = (int * V3.t) list array

type state

val create : Circuit.t -> state

(** [value st n] is the current value of net [n]. *)
val value : state -> int -> V3.t

(** [values st] is the underlying array (indexed by net id); callers must
    not mutate it. *)
val values : state -> V3.t array

val set_input : Circuit.t -> state -> int -> V3.t -> unit

(** [set_ff c st ff v] forces the output of flip-flop [ff] (for test setup
    and for modelling a scanned-in state). *)
val set_ff : Circuit.t -> state -> int -> V3.t -> unit

(** [eval_comb c st] recomputes every gate net from the current input,
    constant and flip-flop values. *)
val eval_comb : Circuit.t -> state -> unit

(** [clock c st] latches each flip-flop's data value into its output
    (simultaneously across all flip-flops) and re-evaluates the
    combinational logic. *)
val clock : Circuit.t -> state -> unit

(** [outputs c st] reads the primary-output values. *)
val outputs : Circuit.t -> state -> V3.t array

(** [run c ~cycles ~stimulus ~observe] drives a fresh state for [cycles]
    clock periods. Each cycle [t]: [stimulus t] assignments are applied to
    primary inputs (by net id), combinational logic settles, [observe t st]
    is called, then the clock ticks. *)
val run :
  Circuit.t ->
  cycles:int ->
  stimulus:(int -> (int * V3.t) list) ->
  observe:(int -> state -> unit) ->
  unit
