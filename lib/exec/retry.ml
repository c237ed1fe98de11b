(* Bounded deterministic retry for transient failures.

   The policy is explicit and injectable end to end — attempt count,
   transient classifier, backoff schedule, and the sleep function itself
   — so tests drive retries with a fake clock and production gets a
   short capped exponential backoff. Classification is deliberately
   conservative: only failures that plausibly resolve on their own
   (injected chaos, OS-level I/O errors) are transient; everything else
   is a poison failure and surfaces immediately, because re-running a
   deterministic logic error just burns time. *)

type policy = {
  attempts : int;
  transient : exn -> bool;
  backoff : int -> float;
  sleep : float -> unit;
}

let default_transient = function
  | Chaos.Injected _ -> true
  | Sys_error _ -> true
  | Unix.Unix_error _ -> true
  | _ -> false

(* 1ms, 2ms, 4ms, ... capped at 50ms: enough to step over a transient
   I/O hiccup without stalling the flow for long. *)
let default_backoff k = Float.min 0.05 (0.001 *. (2.0 ** float_of_int (k - 1)))

let default =
  {
    attempts = 3;
    transient = default_transient;
    backoff = default_backoff;
    sleep = Unix.sleepf;
  }

let run ?(policy = default) f =
  let attempts = max 1 policy.attempts in
  let rec go k =
    match f () with
    | y -> Ok y
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if k < attempts && policy.transient e then begin
        policy.sleep (policy.backoff k);
        go (k + 1)
      end
      else (Error (e, bt) : (_, exn * Printexc.raw_backtrace) result)
  in
  go 1
