(** Time-frame expansion of a sequential circuit into a combinational model
    for sequential ATPG.

    The circuit is replicated for [frames] clock cycles under a fixed set of
    primary-input constraints (the scan-mode values). In frame 0 each
    flip-flop output becomes a fresh input when its initial state is
    controllable (reachable through the fault-free chain prefix) and an
    unknown source otherwise; in later frames it becomes a buffer of the
    previous frame's data net. Observation points are the primary outputs
    of every frame plus, for each observable flip-flop, the value it latches
    at the end of every frame (including the last, via dedicated capture
    buffers). *)

open Fst_logic
open Fst_netlist
open Fst_fault

type origin =
  | Pi of { frame : int; net : int }  (** per-frame copy of a free input *)
  | State of int  (** frame-0 state of a controllable flip-flop *)

type t = {
  original : Circuit.t;
  frames : int;
  view : View.t;  (** combinational view of the unrolled circuit *)
  net_at : int array array;  (** [net_at.(frame).(orig)] = unrolled net *)
  capture_of : int array;
      (** per original flip-flop net: the capture-buffer net observing what
          it latches at the end of the last frame, or [-1] *)
}

val build :
  Circuit.t ->
  frames:int ->
  constraints:(int * V3.t) list ->
  controllable_ff:(int -> bool) ->
  observable_ff:(int -> bool) ->
  t

(** [map_fault u f] replicates an original-circuit fault onto every frame of
    the unrolled model. *)
val map_fault : t -> Fault.t -> Fault.t list

(** [origin u net] describes where an unrolled free input came from,
    computed in closed form from [net]. Raises [Invalid_argument] when
    [net] is not a free input of the unrolled model. *)
val origin : t -> int -> origin
