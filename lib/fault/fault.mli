(** Single stuck-at faults.

    A fault site is either a {e stem} (the output net of a driver) or a
    {e branch} (one fanin pin of one consumer node). Branch sites are only
    meaningful on nets with fanout greater than one; on fanout-one nets the
    branch fault is identical to the stem fault and is not enumerated. *)

open Fst_netlist

type site =
  | Stem of int  (** net id *)
  | Branch of { node : int; pin : int }
      (** fanin pin [pin] of node [node] *)

type t = { site : site; stuck : bool }  (** stuck at 1 when [stuck] *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [site_net c f] is the net carrying the faulted signal (the source net of
    a branch site, the net itself for a stem). *)
val site_net : Circuit.t -> t -> int

(** [observers c f] is the list of node ids whose input is directly altered
    by [f]: every consumer of the net for a stem, the single consumer pin's
    node for a branch. *)
val observers : Circuit.t -> t -> int list

val pp : Circuit.t -> t Fmt.t
val to_string : Circuit.t -> t -> string

(** [pin_fault c ~node ~pin ~stuck] is the fault on a fanin pin: the branch
    fault on that pin when the source net has fanout > 1, otherwise the
    stem fault of the source net (the two are the same fault). *)
val pin_fault : Circuit.t -> node:int -> pin:int -> stuck:bool -> t

(** [universe c] enumerates the full uncollapsed fault list: two stem faults
    per net plus two branch faults per fanin pin whose source net has
    fanout > 1. The order is deterministic and coincides with {!compare}
    order (stems ascending, then branches ascending). *)
val universe : Circuit.t -> t array

(** [collapse c faults] partitions [faults] into structural equivalence
    classes (gate-input-to-output equivalences through and/or/nand/nor/
    not/buf, chained through fanout-free regions) and returns one
    representative per class, preserving the input order of
    representatives. *)
val collapse : Circuit.t -> t array -> t array

(** [collapse_classes c faults] is the underlying partition: for each fault
    its representative's index in the returned representative array.

    Invariant: the representative of each class is its lowest member in
    {!compare} order, independent of the order of [faults] — two calls
    over permutations of the same fault set pick the same representatives.
    Representatives are emitted in the input order of their positions; for
    {!universe} input (already sorted by {!compare}) they are therefore
    sorted. *)
val collapse_classes : Circuit.t -> t array -> t array * int array

(** [seed f] is the net id at which the fault's influence enters the
    circuit: the stem net, or the faulted consumer node for a branch
    fault. The compiled simulation kernels map it through their net→slot
    permutation to clip evaluation to the fault's cone. *)
val seed : t -> int

(** [cone c f] is the static fanout cone of [f]: every net reachable through
    [Circuit.fanout] (crossing flip-flops) from the fault's seed — the stem
    net, or the faulted consumer node for a branch fault — seed included,
    sorted ascending. Nets outside the cone can never diverge from the
    fault-free machine under [f]; this is the soundness envelope of the
    cone-clipped fault simulator and of the static analysis's fault-aware
    implications. *)
val cone : Circuit.t -> t -> int array

(** [cone_sizes c faults] is [Array.length (cone c f)] per fault,
    computed with a per-seed cache (faults sharing a seed share the
    traversal). *)
val cone_sizes : Circuit.t -> t array -> int array
