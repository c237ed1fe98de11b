module Pool = Fst_exec.Pool
module Clock = Fst_exec.Clock
module Q = QCheck

exception Boom of int

let squares n = Array.init n (fun i -> i)

(* A plain parallel map: [map_array_init] with a unit context. *)
let map ?obs ?label ?chunk ?work ~jobs f xs =
  Pool.map_array_init ?obs ?label ?chunk ?work ~jobs ~init:ignore
    (fun () x -> f x)
    xs

let test_deterministic_order () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let xs = squares n in
          let expect = Array.map (fun x -> x * x) xs in
          let got = map ~jobs (fun x -> x * x) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            expect got)
        [ 0; 1; 2; 3; 7; 63; 200 ])
    [ 1; 2; 4; 8 ]

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        map ~jobs
          (fun x -> if x mod 5 = 3 then raise (Boom x) else x)
          (squares 40)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      (* The lowest failing index wins deterministically. *)
      | exception Boom v -> Alcotest.(check int) "first failure" 3 v)
    [ 1; 2; 8 ]

let test_chunk_override () =
  let xs = squares 17 in
  let got = map ~chunk:1 ~jobs:4 (fun x -> x + 1) xs in
  Alcotest.(check (array int)) "chunk=1" (Array.map (fun x -> x + 1) xs) got;
  let got = map ~chunk:100 ~jobs:4 (fun x -> x + 1) xs in
  Alcotest.(check (array int))
    "chunk>n" (Array.map (fun x -> x + 1) xs) got

(* Tasks run with real shared-memory parallelism yet results land in input
   order even when early tasks finish last. *)
let test_order_independent_of_duration () =
  let n = 24 in
  let got =
    map ~jobs:4
      (fun i ->
        (* Earlier indices spin longer, so completion order is reversed. *)
        let spin = (n - i) * 2000 in
        let acc = ref 0 in
        for k = 1 to spin do
          acc := !acc + k
        done;
        ignore !acc;
        i)
      (squares n)
  in
  Alcotest.(check (array int)) "input order" (squares n) got

let prop_matches_sequential =
  Q.Test.make ~name:"pool map_array = Array.map for any jobs" ~count:50
    Q.(pair (int_bound 7) (list_of_size (Gen.int_bound 50) small_int))
    (fun (jobs, xs) ->
      let xs = Array.of_list xs in
      let f x = (x * 31) lxor 5 in
      map ~jobs:(jobs + 1) f xs = Array.map f xs)

(* --- work stealing, min-work fallback, per-domain contexts ------------- *)

(* Tests that need two domains to actually run concurrently are skipped
   on single-core machines, where the pool (correctly) clamps the worker
   count to one and the cross-domain rendezvous below would spin
   forever. *)
let multicore = Pool.default_jobs () >= 2

(* Worker 0's first task blocks until its range's second task has run —
   which only a thief (worker 1, done with its own range) can reach,
   since worker 0 is stuck. Progress therefore proves stealing works;
   the [pool.steal.steals] counter proves it was counted. *)
let test_steal_unblocks_stuck_owner () =
  if not multicore then ()
  else begin
  let metrics = Fst_obs.Metrics.create () in
  let obs = Fst_obs.Sink.create ~metrics () in
  let flag = Atomic.make false in
  let got =
    map ~obs ~label:"steal" ~jobs:2 ~chunk:1
      (fun x ->
        if x = 0 then
          while not (Atomic.get flag) do
            Domain.cpu_relax ()
          done
        else if x = 1 then Atomic.set flag true;
        x * 7)
      (squares 4)
  in
  Alcotest.(check (array int))
    "results in input order"
    (Array.map (fun x -> x * 7) (squares 4))
    got;
  let steals =
    Fst_obs.Metrics.Counter.value
      (Fst_obs.Metrics.counter metrics "pool.steal.steals")
  in
  Alcotest.(check bool) "at least one steal counted" true (steals >= 1)
  end

(* A workload whose estimated [work] is under the threshold runs on the
   calling domain no matter what [jobs] says. *)
let test_min_work_runs_in_caller () =
  let self = Domain.self () in
  let ran_here = ref true in
  let got =
    map ~jobs:8 ~work:(Pool.min_work - 1)
      (fun x ->
        if Domain.self () <> self then ran_here := false;
        x + 1)
      (squares 32)
  in
  Alcotest.(check (array int))
    "results" (Array.map (fun x -> x + 1) (squares 32)) got;
  Alcotest.(check bool) "all tasks ran on the caller" true !ran_here;
  (* At or above the threshold the pool spawns (when the machine has
     cores to spawn onto). Every task waits until two distinct domains
     have participated (with a deadline escape), so a second domain is
     guaranteed to have claimed work — a fast caller cannot race through
     the whole queue alone. *)
  if multicore then begin
    let two_seen = Atomic.make false in
    let first = Atomic.make None in
    let deadline = Clock.after 10.0 in
    ignore
      (map ~jobs:4 ~chunk:1 ~work:Pool.min_work
         (fun x ->
           let me = Domain.self () in
           (match Atomic.get first with
            | None -> ignore (Atomic.compare_and_set first None (Some me))
            | Some d -> if d <> me then Atomic.set two_seen true);
           while not (Atomic.get two_seen || Clock.expired deadline) do
             Domain.cpu_relax ()
           done;
           x)
         (squares 64));
    Alcotest.(check bool) "above threshold spawns domains" true
      (Atomic.get two_seen)
  end

(* [jobs] beyond the hardware core count is clamped: no matter how large
   the request, at most [default_jobs ()] distinct domains ever
   participate (oversubscribed domains only thrash the minor-GC
   barrier). *)
let test_jobs_clamped_to_cores () =
  let seen = Atomic.make [] in
  let rec note me =
    let ds = Atomic.get seen in
    if (not (List.mem me ds)) && not (Atomic.compare_and_set seen ds (me :: ds))
    then note me
  in
  let got =
    map ~jobs:64 ~chunk:1
      (fun x ->
        note (Domain.self ());
        x + 3)
      (squares 128)
  in
  Alcotest.(check (array int))
    "results" (Array.map (fun x -> x + 3) (squares 128)) got;
  let distinct = List.length (Atomic.get seen) in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct domains <= %d cores" distinct
       (Pool.default_jobs ()))
    true
    (distinct >= 1 && distinct <= Pool.default_jobs ())

(* [init] runs at most once per participating domain, and every task sees
   its own domain's context. *)
let test_map_array_init_context_per_domain () =
  let next = Atomic.make 0 in
  let jobs = 3 in
  (* Alcotest's checks print through [Format], which is not domain-safe:
     workers only count mismatches, the assertion runs after the join. *)
  let foreign = Atomic.make 0 in
  let got =
    Pool.map_array_init ~jobs
      ~init:(fun () -> (Domain.self (), Atomic.fetch_and_add next 1))
      (fun (dom, _id) x ->
        if Domain.self () <> dom then Atomic.incr foreign;
        x * 2)
      (squares 100)
  in
  Alcotest.(check int) "every context belongs to its domain" 0
    (Atomic.get foreign);
  Alcotest.(check (array int))
    "results" (Array.map (fun x -> x * 2) (squares 100)) got;
  let inits = Atomic.get next in
  Alcotest.(check bool)
    (Printf.sprintf "1 <= %d inits <= jobs" inits)
    true
    (inits >= 1 && inits <= jobs);
  (* Sequential path: exactly one context, created lazily. *)
  let count = ref 0 in
  ignore
    (Pool.map_array_init ~jobs:1
       ~init:(fun () -> incr count)
       (fun () x -> x)
       (squares 5));
  Alcotest.(check int) "jobs=1 creates one context" 1 !count

(* --- bounded retry ------------------------------------------------------- *)

module Retry = Fst_exec.Retry

(* Test policy: identical semantics, no real backoff sleeping. *)
let fast_retry = { Retry.default with Retry.sleep = (fun _ -> ()) }

(* A transient failure is retried within the bounded attempt budget and
   the call still comes back [Ok]; a clean call runs exactly once. *)
let test_retry_transient () =
  let policy =
    { fast_retry with Retry.attempts = 3; transient = (fun _ -> true) }
  in
  let tries = ref 0 in
  let got =
    Retry.run ~policy (fun () ->
        incr tries;
        if !tries < 3 then raise (Boom !tries) else 42)
  in
  Alcotest.(check bool) "flaky call ends Ok" true (got = Ok 42);
  Alcotest.(check int) "flaky call used its attempts" 3 !tries;
  let clean = ref 0 in
  ignore (Retry.run ~policy (fun () -> incr clean));
  Alcotest.(check int) "clean call ran once" 1 !clean

(* A failure that outlives the budget, and a poison failure at once, come
   back as [Error] carrying the exception instead of being raised. *)
let test_retry_exhausted () =
  let tries = ref 0 in
  let policy =
    { fast_retry with Retry.attempts = 2; transient = (fun _ -> true) }
  in
  (match
     Retry.run ~policy (fun () ->
         incr tries;
         raise (Boom 2))
   with
   | Error (Boom 2, _) -> ()
   | _ -> Alcotest.fail "exhausted call should be Error (Boom 2)");
  Alcotest.(check int) "attempts bounded" 2 !tries;
  tries := 0;
  (match
     Retry.run ~policy:fast_retry (fun () ->
         incr tries;
         raise (Boom 3))
   with
   | Error (Boom 3, _) -> ()
   | _ -> Alcotest.fail "poison call should be Error (Boom 3)");
  Alcotest.(check int) "poison is not retried" 1 !tries

let suite =
  [
    Alcotest.test_case "deterministic merge order" `Quick
      test_deterministic_order;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagates;
    Alcotest.test_case "chunk override" `Quick test_chunk_override;
    Alcotest.test_case "order independent of task duration" `Quick
      test_order_independent_of_duration;
    Helpers.qcheck prop_matches_sequential;
    Alcotest.test_case "stealing unblocks a stuck owner" `Quick
      test_steal_unblocks_stuck_owner;
    Alcotest.test_case "min-work fallback runs in caller" `Quick
      test_min_work_runs_in_caller;
    Alcotest.test_case "jobs clamped to core count" `Quick
      test_jobs_clamped_to_cores;
    Alcotest.test_case "map_array_init context per domain" `Quick
      test_map_array_init_context_per_domain;
    Alcotest.test_case "retry absorbs transient failures" `Quick
      test_retry_transient;
    Alcotest.test_case "retry bounds its attempts" `Quick
      test_retry_exhausted;
  ]
