(** Bounded, deterministic retry for transient failures.

    Wraps a thunk with a retry {!policy}: failures the policy classifies
    as {e transient} are retried up to [attempts] total attempts with a
    backoff sleep between them; the first non-transient ({e poison})
    failure — or transient failure past the attempt budget — comes back
    as [Error] with its backtrace, never re-raised behind the caller's
    back. The sleep function is part of the policy, so tests inject a
    fake clock and stay wall-clock free. *)

type policy = {
  attempts : int;  (** total attempts, [>= 1] (1 = no retry) *)
  transient : exn -> bool;  (** retry this failure? *)
  backoff : int -> float;
      (** seconds to sleep after failing attempt [k] (1-based) *)
  sleep : float -> unit;  (** injectable; [Unix.sleepf] in production *)
}

(** Transient: {!Chaos.Injected}, [Sys_error], [Unix.Unix_error] —
    failures that plausibly resolve on their own. Everything else
    (logic errors) is poison: retrying a deterministic failure only
    burns time. *)
val default_transient : exn -> bool

(** Capped exponential: 1ms, 2ms, 4ms, ... at most 50ms. *)
val default_backoff : int -> float

(** 3 attempts, {!default_transient}, {!default_backoff},
    [Unix.sleepf]. *)
val default : policy

(** [run ?policy f] runs [f] under the policy (default {!default}). *)
val run :
  ?policy:policy ->
  (unit -> 'a) ->
  ('a, exn * Printexc.raw_backtrace) result
