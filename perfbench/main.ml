(* perfbench: the chain-test flow benchmark (see README.md next to this
   file for the workloads, the metrics and how to run it).

   main.exe --workload long-chain|multi-chain|serve-mix --seed N
            --seconds S --trace 0|1 [--circuit-seed K]

   [--trace 0] measures the end-to-end metrics with observability off;
   [--trace 1] runs the same workload once untraced and once with an
   Fst_obs sink attached, plus benchmark-side probes around direct calls
   into single layers, and reports the per-layer metrics. Either way the
   last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the lines before it are
   the host stamp and a human-readable table. *)

open Fst_netlist
open Fst_tpi
open Fst_core
module J = Fst_obs.Json
module Pool = Fst_exec.Pool
module Gen = Fst_gen.Gen
module Suite = Fst_gen.Suite
module Report = Fst_report.Flow_report
module Protocol = Fst_serve.Protocol
module Server = Fst_serve.Server
module Client = Fst_serve.Client
module Cache = Fst_serve.Cache

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A timed interval: when it started and how long it took. *)
type span = { t0 : float; dt : float }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, { t0; dt = now () -. t0 })

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let workload_names = [ "long-chain"; "multi-chain"; "serve-mix" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  circuit_seed : int;
}

let usage =
  "usage: main.exe --workload long-chain|multi-chain|serve-mix --seed N \
   --seconds S --trace 0|1 [--circuit-seed K]"

let parse_args () =
  let bad msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest when List.mem w workload_names ->
      go { a with workload = w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> go { a with seed } rest
      | None -> bad ("--seed: not an integer: " ^ s))
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0.0 -> go { a with seconds } rest
      | _ -> bad ("--seconds: not a positive number: " ^ s))
    | "--trace" :: (("0" | "1") as t) :: rest -> go { a with trace = t = "1" } rest
    | "--circuit-seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some circuit_seed -> go { a with circuit_seed } rest
      | None -> bad ("--circuit-seed: not an integer: " ^ s))
    | arg :: _ -> bad ("unexpected argument: " ^ arg)
  in
  let a =
    go
      { workload = ""; seed = 0; seconds = 10.0; trace = false; circuit_seed = 0 }
      (List.tl (Array.to_list Sys.argv))
  in
  if a.workload = "" then bad "--workload is required";
  a

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Quantile by linear interpolation between order statistics; 0 on an
   empty sample. Interpolating keeps a quantile that falls between two
   circuits' latencies from jumping from one to the other. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let sum_int = List.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts by tens of percent from minute to minute
   (README.md, "Host speed"), more than any bound a regression gate can
   use. So every end-to-end time is divided by the host's speed over the
   interval it measures, taken with a fixed reference workload that
   lives here and shares no code with the program: building and walking
   a stdlib integer map, i.e. allocation, pointer chasing and branches,
   the make-up of the program's own code. Of the references tried, this
   one slowed down the most like the flows when the host got busy
   (README.md, "Host speed"). A change to the program cannot move it. *)
module Ref_map = Map.Make (Int)

(* One sample: eight maps of 3000 keys, about 5 ms. *)
let ref_rounds = 8

let ref_work () =
  let acc = ref 0 in
  for round = 1 to ref_rounds do
    let m = ref Ref_map.empty in
    for i = 0 to 2999 do
      m := Ref_map.add (((i * 7919) + round) land 0xffff) i !m
    done;
    Ref_map.iter (fun k v -> if (k + v) land 7 = 0 then incr acc) !m
  done;
  !acc

(* Seconds one [ref_work] takes on the reference host; normalized times
   are in seconds of that host. The 2-core development host (Intel Xeon,
   OCaml 5.1.1) took 4.7–7.6 ms (run medians), varying with its load. *)
let ref_nominal_s = 0.005

(* The sampler: while [sampling] is set, a thread of the main domain
   times [ref_work] every [sample_period] seconds and logs (start,
   duration). It needs the domain lock, so it samples the speed of the
   CPU the measured work runs on, in between that work, throughout it —
   the host's speed changes within seconds, so timing the reference only
   before and after a long flow does not track it (README.md, "Host
   speed"). The work pauses while a sample runs, about 2% of the time,
   alike for every version of the program. *)
let sample_period = 0.25
let sampling = Atomic.make false
let samples = ref []
let samples_lock = Mutex.create ()

let start_sampler () =
  let expected = ref_work () in
  ignore
    (Thread.create
       (fun () ->
         while true do
           Thread.delay sample_period;
           if Atomic.get sampling then begin
             let t0 = now () in
             let r = ref_work () in
             let dt = now () -. t0 in
             (* Checked, so it cannot be optimized away or silently
                change. *)
             if r <> expected then begin
               prerr_endline "perfbench: host reference is not deterministic";
               Unix._exit 3
             end;
             Mutex.lock samples_lock;
             samples := (t0, dt) :: !samples;
             Mutex.unlock samples_lock
           end
         done)
       ())

(* The host's slowdown against the reference host over [t0, t1]: the
   median of the samples started in that window, or of the three started
   nearest to it if it holds fewer, over [ref_nominal_s]. *)
let slowdown_over t0 t1 =
  Mutex.lock samples_lock;
  let all = !samples in
  Mutex.unlock samples_lock;
  let distance (s, _) = if s < t0 then t0 -. s else if s > t1 then s -. t1 else 0.0 in
  let near =
    List.stable_sort (fun a b -> Float.compare (distance a) (distance b)) all
    |> List.filteri (fun i x -> i < 3 || distance x = 0.0)
  in
  if near = [] then failwith "perfbench: no host speed sample";
  median (List.map snd near) /. ref_nominal_s

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The CPUs this process may use: 1 under [run.sh], which pins the run to
   one CPU. *)
let nproc = Domain.recommended_domain_count ()

(* The flow's per-fault wall-clock deadlines (0.5 s per step-3 group
   fault, 2.0 s per final fault) make step-3 verdicts depend on host
   speed; lifted out of reach, backtrack limits alone bound the search
   and every verdict count repeats exactly (README.md, "Deadlines"). *)
let unreachable_s = 1e9

let flow_config ~scale =
  Config.(
    default
    |> with_seq_fault_seconds unreachable_s
    |> with_final_fault_seconds unreachable_s
    |> with_dist_floor_scale scale |> with_jobs nproc)

type circuit = { name : string; profile : Gen.profile; chains : int }

(* Two seeds. The circuit seed picks the circuit family: 0 keeps the
   suite's own seeds ([Suite.seed_of]); any other value is mixed into them
   (splitmix64 finalizer), giving distinct circuits of the same sizes. The
   run seed ([--seed]) changes only what leaves the work unchanged: the
   order of multi-chain's circuits and of serve-mix's requests. Flow cost
   is a property of circuit structure and differs up to 3x between circuit
   families of one size (README.md, "Seeds"), so a seed that changed the
   circuits could not give steady numbers. *)
let mix_seed base seed =
  if seed = 0 then base
  else
    let open Int64 in
    let z = add (of_int seed) 0x9E3779B97F4A7C15L in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor base (logxor z (shift_right_logical z 31))

let shuffle ~seed xs =
  let rng = Fst_gen.Rng.create (mix_seed 0x5EEDL seed) in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Fst_gen.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let suite_circuit ~scale ~seed ?chains name =
  let e = Suite.find ~scale name in
  let p = e.Suite.profile in
  {
    name;
    profile = { p with Gen.seed = mix_seed p.Gen.seed seed };
    chains = Option.value chains ~default:e.Suite.chains;
  }

let long_chain_scale = 0.07
let multi_chain_scale = 0.1
let serve_scale = 0.1

let multi_chain_names =
  [ "s1423"; "s1488"; "s1494"; "s3330"; "s4863"; "s5378"; "s6669"; "s9234";
    "s13207"; "s15850" ]

(* serve-mix: small generated circuits, split between two closed-loop
   clients that never share one, so whether a submit hits the cache is
   fixed by the request list and not by timing. *)
let serve_clients = 2
let serve_circuits_per_client = 6
let serve_repeats = 4

(* Sizes are fixed per slot; the circuit seed changes each circuit's
   structure, not its size. *)
let serve_circuits ~seed =
  List.init (serve_clients * serve_circuits_per_client) (fun i ->
      let name = Printf.sprintf "svc%02d" i in
      {
        name;
        profile =
          {
            Gen.name;
            gates = 150 + (15 * i);
            ffs = 8 + (i / 2);
            pis = 8;
            pos = 6;
            seed = mix_seed (Int64.of_int (7919 * (i + 1))) seed;
          };
        chains = 1 + (i / serve_clients mod 2);
      })

(* The request lists, as phases of one list per client. Cold phases, one
   per client: that client submits every circuit it owns once (all
   misses) while the other waits. Then the warm phase: both clients submit
   the remaining [serve_repeats - 1] copies of their circuits in a seeded
   order (all hits). Between phases the clients wait for each other, so a
   miss never queues behind, or shares the daemon's domain with, another
   miss, and no hit overlaps a miss: each latency is that of its own job,
   not of how the two clients happened to interleave. *)
let serve_requests ~seed circuits =
  let owned k = List.filteri (fun i _ -> i mod serve_clients = k) circuits in
  List.init serve_clients (fun cold ->
      List.init serve_clients (fun k -> if k = cold then owned k else []))
  @ [
    List.init serve_clients (fun k ->
        shuffle
          ~seed:((serve_clients * seed) + k)
          (List.concat_map
             (fun c -> List.init (serve_repeats - 1) (fun _ -> c))
             (owned k)));
  ]

type workload = {
  wname : string;
  scale : float;
  family : int;  (** the circuit seed *)
  circuits : circuit list;
}

let workload_of args =
  let family = args.circuit_seed in
  match args.workload with
  | "long-chain" ->
    (* One functional chain, as [fst flow] does by default. *)
    {
      wname = args.workload;
      scale = long_chain_scale;
      family;
      circuits =
        [ suite_circuit ~scale:long_chain_scale ~seed:family ~chains:1 "s38584" ];
    }
  | "multi-chain" ->
    {
      wname = args.workload;
      scale = multi_chain_scale;
      family;
      circuits =
        shuffle ~seed:args.seed
          (List.map
             (suite_circuit ~scale:multi_chain_scale ~seed:family)
             multi_chain_names);
    }
  | _ ->
    {
      wname = args.workload;
      scale = serve_scale;
      family;
      circuits = serve_circuits ~seed:family;
    }

(* ------------------------------------------------------------------ *)
(* Verdicts and the correctness gate                                   *)
(* ------------------------------------------------------------------ *)

type verdict = {
  hard : int;
  detected : int;
  untestable : int;
  untestable_static : int;
  undetected : int;
  aborted : int;
  failed : int;
}

let verdict_of (r : Report.t) =
  {
    hard = r.Report.hard;
    detected = r.Report.step2_detected + r.Report.step3_detected;
    untestable = r.Report.step2_untestable + r.Report.step3_untestable;
    untestable_static = r.Report.untestable_static;
    undetected = List.length r.Report.undetected;
    aborted = r.Report.aborted_faults;
    failed = r.Report.failed_faults;
  }

let verdict_to_string v =
  Printf.sprintf "hard=%d det=%d unt=%d unt_static=%d und=%d abort=%d failed=%d"
    v.hard v.detected v.untestable v.untestable_static v.undetected v.aborted
    v.failed

(* Verdict counts recorded with the benchmark, per (workload, circuit
   seed, circuit): the default circuit seed 0 and the held-out one, 7. *)
let recorded =
  let v hard detected untestable untestable_static undetected =
    { hard; detected; untestable; untestable_static; undetected; aborted = 0; failed = 0 }
  in
  [
    (("serve-mix", 0, "svc00"), v 16 14 0 0 2);
    (("serve-mix", 0, "svc01"), v 17 16 0 0 1);
    (("serve-mix", 0, "svc02"), v 30 28 1 0 1);
    (("serve-mix", 0, "svc03"), v 16 12 0 1 3);
    (("serve-mix", 0, "svc04"), v 21 17 0 0 4);
    (("serve-mix", 0, "svc05"), v 23 21 0 0 2);
    (("serve-mix", 0, "svc06"), v 36 35 0 1 0);
    (("serve-mix", 0, "svc07"), v 21 21 0 0 0);
    (("serve-mix", 0, "svc08"), v 27 24 0 0 3);
    (("serve-mix", 0, "svc09"), v 32 29 0 1 2);
    (("serve-mix", 0, "svc10"), v 26 24 0 2 0);
    (("serve-mix", 0, "svc11"), v 15 15 0 0 0);
    (("multi-chain", 0, "s13207"), v 176 171 0 4 1);
    (("multi-chain", 0, "s1423"), v 15 14 0 0 1);
    (("multi-chain", 0, "s1488"), v 2 2 0 0 0);
    (("multi-chain", 0, "s1494"), v 2 2 0 0 0);
    (("multi-chain", 0, "s15850"), v 151 146 1 3 1);
    (("multi-chain", 0, "s3330"), v 22 21 0 0 1);
    (("multi-chain", 0, "s4863"), v 24 22 1 0 1);
    (("multi-chain", 0, "s5378"), v 47 39 1 4 3);
    (("multi-chain", 0, "s6669"), v 65 60 0 4 1);
    (("multi-chain", 0, "s9234"), v 94 89 1 3 1);
    (("long-chain", 0, "s38584"), v 353 307 0 19 27);
    (("serve-mix", 7, "svc00"), v 30 24 1 0 5);
    (("serve-mix", 7, "svc01"), v 19 14 0 0 5);
    (("serve-mix", 7, "svc02"), v 30 27 3 0 0);
    (("serve-mix", 7, "svc03"), v 28 27 0 0 1);
    (("serve-mix", 7, "svc04"), v 17 16 0 0 1);
    (("serve-mix", 7, "svc05"), v 20 19 0 1 0);
    (("serve-mix", 7, "svc06"), v 31 29 1 0 1);
    (("serve-mix", 7, "svc07"), v 21 21 0 0 0);
    (("serve-mix", 7, "svc08"), v 34 32 0 0 2);
    (("serve-mix", 7, "svc09"), v 32 25 3 0 4);
    (("serve-mix", 7, "svc10"), v 51 48 1 2 0);
    (("serve-mix", 7, "svc11"), v 51 46 1 3 1);
    (("multi-chain", 7, "s13207"), v 222 211 1 7 3);
    (("multi-chain", 7, "s1423"), v 12 9 0 0 3);
    (("multi-chain", 7, "s1488"), v 2 2 0 0 0);
    (("multi-chain", 7, "s1494"), v 2 2 0 0 0);
    (("multi-chain", 7, "s15850"), v 193 187 1 1 4);
    (("multi-chain", 7, "s3330"), v 31 29 1 0 1);
    (("multi-chain", 7, "s4863"), v 35 34 1 0 0);
    (("multi-chain", 7, "s5378"), v 38 36 0 1 1);
    (("multi-chain", 7, "s6669"), v 53 50 0 3 0);
    (("multi-chain", 7, "s9234"), v 90 80 5 4 1);
    (("long-chain", 7, "s38584"), v 294 244 2 17 31)
  ]

(* The gate counts operations — set-ups, flows and submits — and fails
   an operation on any broken check; error_rate = failed / attempted. *)
type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;
}

let gate = { attempted = 0; failed = 0; messages = [] }

let record_op name errs =
  gate.attempted <- gate.attempted + 1;
  if errs <> [] then begin
    gate.failed <- gate.failed + 1;
    gate.messages <-
      List.rev_append (List.map (fun e -> name ^ ": " ^ e) errs) gate.messages
  end

(* First verdict seen per circuit in this process; later ones must match. *)
let seen : (string, verdict) Hashtbl.t = Hashtbl.create 16

let report_errors ~wl ~family ~circuit (r : Report.t) =
  let v = verdict_of r in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if
    v.detected + v.untestable + v.untestable_static + v.undetected + v.aborted
    + v.failed
    <> v.hard
  then err "partition broken (%s)" (verdict_to_string v);
  if r.Report.podem_aborted_deadline <> 0 then
    err "%d PODEM aborts by deadline" r.Report.podem_aborted_deadline;
  if Report.budget_exhausted r then err "budget tripped";
  (match Hashtbl.find_opt seen circuit with
   | None -> Hashtbl.replace seen circuit v
   | Some v0 when v0 <> v ->
     err "verdicts moved between runs (%s, then %s)" (verdict_to_string v0)
       (verdict_to_string v)
   | Some _ -> ());
  (match List.assoc_opt (wl, family, circuit) recorded with
   | Some v0 when v0 <> v ->
     err "verdicts differ from the recorded ones (%s, recorded %s)"
       (verdict_to_string v) (verdict_to_string v0)
   | _ -> ());
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Setup: generate, insert test points + chains, verify the shift      *)
(* ------------------------------------------------------------------ *)

type prepared = {
  circuit : circuit;
  scanned : Circuit.t;
  config : Scan.config;
  gen_s : float;
  tpi_s : float;
  verify_s : float;
}

let prepare circuit =
  let before, gen_s = time (fun () -> Gen.generate circuit.profile) in
  let (scanned, config), tpi_s =
    time (fun () ->
        Tpi.insert
          ~options:{ Tpi.default_options with Tpi.chains = circuit.chains }
          before)
  in
  let shift, verify_s = time (fun () -> Scan.verify_shift scanned config) in
  record_op circuit.name
    (match shift with
     | Ok () -> []
     | Error _ -> [ "scan chain does not shift after TPI" ]);
  { circuit; scanned; config; gen_s; tpi_s; verify_s }

let setup_s ps = sum (List.map (fun p -> p.gen_s +. p.tpi_s +. p.verify_s) ps)

(* ------------------------------------------------------------------ *)
(* Flow passes                                                         *)
(* ------------------------------------------------------------------ *)

let undetected_of r =
  let v = verdict_of r in
  v.undetected + v.aborted + v.failed

(* A checked flow keeps only what the metrics need, so a later pass does
   not run beside the heap of every earlier one. *)
type flow_run = { latency : span; undetected : int }

let flow_pass ~wl ~family ~cfg preps =
  List.map
    (fun p ->
      let result, latency = timed (fun () -> Flow.run ~config:cfg p.scanned p.config) in
      let report = Report.of_result result in
      record_op p.circuit.name
        (report_errors ~wl ~family ~circuit:p.circuit.name report);
      { latency; undetected = undetected_of report })
    preps


(* ------------------------------------------------------------------ *)
(* The in-process daemon                                               *)
(* ------------------------------------------------------------------ *)

type submit_rec = {
  circuit_name : string;
  span : span;
  reply : (bool * string, string) result;  (** (cached, payload) *)
}

type serve_pass = {
  setup : span;
  replay : span;
  subs : submit_rec list;
  cache : Cache.stats;
  log_lines : string list;
}

(* The daemon's socket lives in the build directory of the checkout, one
   per process. *)
let bench_dir = ".bench_build"
let sock_path =
  Filename.concat bench_dir (Printf.sprintf "perfbench-%d.sock" (Unix.getpid ()))

let connect_retry addr =
  let rec go n =
    match Client.connect addr with
    | c -> c
    | exception Unix.Unix_error _ when n > 0 ->
      Thread.delay 0.01;
      go (n - 1)
  in
  go 500

(* A submit in the protocol's polling mode: [wait = false] returns at the
   ack, then [result] blocks until the job is done and answers with its
   one result frame. Streaming submits ([wait = true]) are not used: the
   daemon can send a heartbeat for a job after that job's result frame
   (README.md, "Known defect"), which desynchronizes the connection. *)
let submit_and_fetch conn s =
  match Client.submit conn { s with Protocol.wait = false } with
  | Error e -> Error e
  | Ok o -> (
    match Client.request conn (Protocol.Result o.Client.job) with
    | Error e -> Error e
    | Ok frame -> (
      let field k = J.member k frame in
      match (field "kind", field "cached", field "payload") with
      | Some (J.String "result"), Some (J.Bool cached), Some payload ->
        Ok (cached, J.to_string payload)
      | _ -> Error ("unexpected reply: " ^ J.to_string frame)))

(* Each client thinks for a random 0–2 ms before each submit. Without it
   the two warm-phase clients fall into step — always or never waiting
   for each other — for a whole pass, and hit latencies moved by 20% from
   pass to pass with that. *)
let think_max_s = 0.002

(* One pass: generate the netlists, start a fresh daemon (empty cache) and
   connect one client per request list — the set-up — then, phase by
   phase, let every client replay its list closed-loop on its own thread. *)
let serve_pass ~cfg ~kind ~with_log circuits phases =
  let t0 = now () in
  let netlists =
    List.map (fun c -> (c.name, Netfile.to_string (Gen.generate c.profile))) circuits
  in
  if not (Sys.file_exists bench_dir) then Unix.mkdir bench_dir 0o755;
  let addr = Protocol.Unix_sock sock_path in
  let log_lines = ref [] and log_lock = Mutex.create () in
  let log =
    if with_log then
      Some
        (Fst_obs.Events.to_callback (fun line ->
             Mutex.lock log_lock;
             log_lines := line :: !log_lines;
             Mutex.unlock log_lock))
    else None
  in
  let n_clients = List.length (List.hd phases) in
  let server = Server.create ?log ~addr () in
  let thread = Server.start server in
  let conns = List.init n_clients (fun _ -> connect_retry addr) in
  let setup = { t0; dt = now () -. t0 } in
  let config = Config.to_json cfg in
  let submit_of c =
    {
      Protocol.kind;
      netlist = List.assoc c.name netlists;
      name = c.name;
      chains = c.chains;
      config;
      wait = false;
      tenant = "perfbench";
    }
  in
  let results = Array.make n_clients [] in
  let replay0 = now () in
  let run_phase requests =
    List.mapi
      (fun k (conn, reqs) ->
        Thread.create
          (fun () ->
            let think = Random.State.make [| k |] in
            List.iter
              (fun c ->
                Thread.delay (Random.State.float think think_max_s);
                let reply, span = timed (fun () -> submit_and_fetch conn (submit_of c)) in
                results.(k) <- { circuit_name = c.name; span; reply } :: results.(k))
              reqs)
          ())
      (List.combine conns requests)
    |> List.iter Thread.join
  in
  List.iter run_phase phases;
  let replay = { t0 = replay0; dt = now () -. replay0 } in
  List.iter Client.close conns;
  let cache = Cache.stats (Server.cache server) in
  Server.shutdown server;
  Thread.join thread;
  (try Sys.remove sock_path with Sys_error _ -> ());
  {
    setup;
    replay;
    subs = List.concat_map List.rev (Array.to_list results);
    cache;
    log_lines = List.rev !log_lines;
  }

(* Every submit is one operation: the first submit of a circuit must miss,
   every later one must hit and return the miss's report byte for byte;
   flow reports also pass the verdict checks. *)
let check_submits ~wl ~family ~flow subs =
  let first = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let name = r.circuit_name in
      record_op name
        (match r.reply with
         | Error e -> [ "submit failed: " ^ e ]
         | Ok (cached, payload) ->
           let cache_errs =
             match Hashtbl.find_opt first name with
             | None ->
               Hashtbl.replace first name payload;
               if cached then [ "first submit was a cache hit" ] else []
             | Some p ->
               if not cached then [ "repeat submit missed the cache" ]
               else if p <> payload then
                 [ "cache hit report differs from the miss report" ]
               else []
           in
           let report_errs =
             if not flow then []
             else
               match Report.of_json (J.of_string payload) with
               | Ok rep -> report_errors ~wl ~family ~circuit:name rep
               | Error e -> [ "unreadable flow report: " ^ e ]
           in
           cache_errs @ report_errs))
    subs

let miss_reports subs =
  List.filter_map
    (fun r ->
      match r.reply with
      | Ok (false, payload) -> (
        match Report.of_json (J.of_string payload) with
        | Ok rep -> Some rep
        | Error _ -> None)
      | Ok (true, _) | Error _ -> None)
    subs

let cached r = match r.reply with Ok (c, _) -> c | Error _ -> false

(* ------------------------------------------------------------------ *)
(* End-to-end measurement (observability off)                          *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; unit_ : string; value : float }

let m mname unit_ value = { mname; unit_; value }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows as a set-up regression rather than a flow speed-up. *)
let setup_reps = 5

(* Runs [setup], then [pass] at least once and again while another pass
   of the same length still fits in [seconds], with the sampler on. Also
   returns the heap peak after the first pass: a fixed amount of work,
   not however many passes fit. *)
let measure_passes ~seconds ~setup pass =
  Atomic.set sampling true;
  let setup = timed setup in
  (* Every run starts the first pass from the same collected heap. *)
  Gc.full_major ();
  let start = now () in
  let peak = ref 0.0 in
  let rec go acc =
    let out, s = timed (fun () -> pass (fst setup)) in
    if acc = [] then peak := peak_heap_mb ();
    let acc = (out, s) :: acc in
    if s.t0 +. (2.0 *. s.dt) -. start <= seconds then go acc else List.rev acc
  in
  let passes = go [] in
  Atomic.set sampling false;
  (setup, passes, !peak)

(* A span's length in seconds of the reference host. Called once the
   sampler is off, so a short span can borrow the samples taken just
   after it. *)
let norm s = s.dt /. slowdown_over s.t0 (s.t0 +. s.dt)

(* The medians before normalization and the passes' median slowdown,
   printed above the metrics. *)
let print_raw ~setup ~walls ~latencies passes =
  Printf.printf
    "raw setup_s %.6f wall_s %.6f submit_p50_ms %.4f submit_p90_ms %.4f host_slowdown %.4f\n"
    (median setup) (median walls)
    (1e3 *. quantile latencies 0.5)
    (1e3 *. quantile latencies 0.9)
    (median (List.map (fun (_, s) -> s.dt /. norm s) passes))

let measure_flows args wl cfg =
  let (reps, setup), passes, peak =
    measure_passes ~seconds:args.seconds
      ~setup:(fun () -> List.init setup_reps (fun _ -> List.map prepare wl.circuits))
      (fun reps -> flow_pass ~wl:wl.wname ~family:wl.family ~cfg (List.hd reps))
  in
  let runs = List.concat_map fst passes in
  let latencies = List.map (fun r -> norm r.latency) runs in
  let undetected = sum_int (List.map (fun r -> r.undetected) (fst (List.hd passes))) in
  let flows_s f (p, _) = sum (List.map (fun r -> f r.latency) p) in
  let setups = List.map setup_s reps in
  print_raw ~setup:setups
    ~walls:(List.map (flows_s (fun s -> s.dt)) passes)
    ~latencies:(List.map (fun r -> r.latency.dt) runs)
    passes;
  [
    m "setup_s" "s" (median setups *. norm setup /. setup.dt);
    m "wall_s" "s" (median (List.map (flows_s norm) passes));
    m "undetected_faults" "count" (float_of_int undetected);
    m "peak_heap_mb" "MB" peak;
    m "submit_p50_ms" "ms" (1e3 *. quantile latencies 0.5);
    m "submit_p90_ms" "ms" (1e3 *. quantile latencies 0.9);
    m "jobs_per_s" "1/s" (float_of_int (List.length latencies) /. sum latencies);
  ]

let measure_serve args wl cfg =
  let requests = serve_requests ~seed:args.seed wl.circuits in
  let _, passes, peak =
    measure_passes ~seconds:args.seconds ~setup:ignore (fun () ->
        let p =
          serve_pass ~cfg ~kind:Protocol.Flow ~with_log:false wl.circuits requests
        in
        check_submits ~wl:wl.wname ~family:wl.family ~flow:true p.subs;
        p)
  in
  let passes' = List.map fst passes in
  let subs = List.concat_map (fun p -> p.subs) passes' in
  let latencies = List.map (fun r -> norm r.span) subs in
  let replays = List.map (fun p -> norm p.replay) passes' in
  let undetected = sum_int (List.map undetected_of (miss_reports (List.hd passes').subs)) in
  print_raw
    ~setup:(List.map (fun p -> p.setup.dt) passes')
    ~walls:(List.map (fun p -> p.replay.dt) passes')
    ~latencies:(List.map (fun r -> r.span.dt) subs)
    passes;
  [
    m "setup_s" "s" (median (List.map (fun p -> norm p.setup) passes'));
    m "wall_s" "s" (median replays);
    m "undetected_faults" "count" (float_of_int undetected);
    m "peak_heap_mb" "MB" peak;
    m "submit_p50_ms" "ms" (1e3 *. quantile latencies 0.5);
    m "submit_p90_ms" "ms" (1e3 *. quantile latencies 0.9);
    m "jobs_per_s" "1/s" (float_of_int (List.length latencies) /. sum replays);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer measurement (--trace 1)                                   *)
(* ------------------------------------------------------------------ *)

module Analyze = Fst_obs.Analyze
module Trace = Fst_obs.Trace
module Fault = Fst_fault.Fault
module Podem = Fst_atpg.Podem
module Unroll = Fst_atpg.Unroll

(* Benchmark-side spans around direct calls into single layers. *)
let probe_trace = Trace.create ()
let span name f = Trace.with_span probe_trace ~name ~cat:"perfbench" f

let span_total name =
  Analyze.self_times (Analyze.spans_of_trace (Trace.to_json probe_trace))
  |> List.fold_left
       (fun acc ns ->
         if ns.Analyze.ns_name = name then acc +. ns.Analyze.ns_total_s else acc)
       0.0

(* A flow with the --obs-dir artifact set attached, read back the way
   [fst analyze] reads it. *)
type traced = {
  prep : prepared;
  result : Flow.result;
  run : Analyze.run;
  spans : Analyze.span list;
}

let traced_flow ~cfg ~dir prep =
  let d = Filename.concat dir prep.circuit.name in
  let a = Fst_obs.Artifacts.create ~dir:d in
  let cfg = Config.with_sink (Fst_obs.Artifacts.sink a) cfg in
  let result, wall = timed (fun () -> Flow.run ~config:cfg prep.scanned prep.config) in
  Fst_obs.Artifacts.write ~config:(Config.to_json cfg) a;
  match Analyze.load_dir d with
  | Ok (run, spans) -> ({ prep; result; run; spans }, wall)
  | Error e -> failwith (d ^ ": " ^ e)

(* Sum over the traced flows of the counters whose name satisfies [pred]. *)
let sum_counters ts pred =
  sum_int
    (List.concat_map
       (fun t ->
         List.filter_map
           (fun (k, v) -> if pred k then Some v else None)
           t.run.Analyze.counters)
       ts)

let family prefix suffix k =
  String.starts_with ~prefix k && String.ends_with ~suffix k

let lookup k l ~default = Option.value (List.assoc_opt k l) ~default
let phase_s ts p = sum (List.map (fun t -> lookup p t.run.Analyze.phases ~default:0.0) ts)

let max_gauge ts name =
  List.fold_left
    (fun acc t -> Float.max acc (lookup name t.run.Analyze.gauges ~default:0.0))
    0.0 ts

(* Busy fraction of pool worker [wid] over the traced flows' windows. *)
let busy_frac ts wid =
  let busy, window =
    List.fold_left
      (fun (busy, window) t ->
        let us = Analyze.utilization t.run.Analyze.segs in
        let w =
          List.fold_left
            (fun acc u ->
              if u.Analyze.u_busy_frac > 0.0 then
                Float.max acc (u.Analyze.u_busy_s /. u.Analyze.u_busy_frac)
              else acc)
            0.0 us
        in
        let b =
          List.fold_left
            (fun acc u ->
              if u.Analyze.u_wid = wid then acc +. u.Analyze.u_busy_s else acc)
            0.0 us
        in
        (busy +. b, window +. w))
      (0.0, 0.0) ts
  in
  if window > 0.0 then busy /. window else 0.0

(* PODEM and SCOAP on the scan-mode view, over an evenly strided sample
   of the flow's hard faults. Returns the decisions made. *)
let podem_probe_faults = 100

let podem_probe (cfg : Config.t) t =
  let view =
    View.scan_mode t.prep.scanned ~constraints:t.prep.config.Scan.constraints ()
  in
  let scoap = span "scoap.compute" (fun () -> Fst_testability.Scoap.compute view) in
  let hard = t.result.Flow.classify.Classify.hard in
  let n = Array.length hard in
  let k = min n podem_probe_faults in
  let decisions = ref 0 in
  span "podem.probe" (fun () ->
      for j = 0 to k - 1 do
        let fault = t.result.Flow.faults.(hard.(j * n / k)) in
        let _, st =
          Podem.run ~backtrack_limit:cfg.Config.comb_backtrack ~scoap view
            ~faults:[ fault ]
        in
        decisions := !decisions + st.Podem.decisions
      done);
  !decisions

module FH = Hashtbl.Make (struct
  type t = Fault.t

  let equal = Fault.equal
  let hash = Fault.hash
end)

(* Seq's frame loop rebuilt from Unroll.build / Unroll.map_fault /
   Podem.run, replaying the final attempt (final frames, final backtrack
   limit, the fault's own chain window) on the flow's undetected faults.
   Returns the unrolled nets built. *)
let unroll_probe_faults = 8

let unroll_probe (cfg : Config.t) t =
  let r = t.result in
  let index = FH.create 1024 in
  Array.iteri (fun i f -> FH.replace index f i) r.Flow.faults;
  let positions = Hashtbl.create 256 in
  Array.iter
    (fun ch ->
      Array.iteri
        (fun pos ff -> Hashtbl.replace positions ff (ch.Scan.index, pos))
        ch.Scan.ffs)
    t.prep.config.Scan.chains;
  let nets = ref 0 in
  List.iteri
    (fun k fault ->
      match FH.find_opt index fault with
      | Some i when k < unroll_probe_faults ->
        let locations =
          List.map (fun (c, s, _) -> (c, s))
            r.Flow.classify.Classify.infos.(i).Classify.locations
        in
        let bounds = (Group.footprint_of ~index:0 ~locations).Group.spans in
        let window pick ff =
          match Hashtbl.find_opt positions ff with
          | None -> false
          | Some (chain, pos) -> (
            match List.assoc_opt chain bounds with
            | None -> true
            | Some b -> pick pos b)
        in
        let controllable_ff = window (fun pos (first, _) -> pos < first) in
        let observable_ff = window (fun pos (_, last) -> pos >= last) in
        let rec frames_loop = function
          | [] -> ()
          | frames :: rest -> (
            let u =
              span "unroll.build" (fun () ->
                  Unroll.build t.prep.scanned ~frames
                    ~constraints:t.prep.config.Scan.constraints ~controllable_ff
                    ~observable_ff)
            in
            nets := !nets + Circuit.num_nets u.Unroll.view.View.circuit;
            let faults = Unroll.map_fault u fault in
            match
              span "seq.podem" (fun () ->
                  Podem.run ~backtrack_limit:cfg.Config.final_backtrack
                    u.Unroll.view ~faults)
            with
            | Podem.Test _, _ -> ()
            | (Podem.Untestable | Podem.Aborted), _ -> frames_loop rest)
        in
        frames_loop cfg.Config.final_frames
      | _ -> ())
    r.Flow.undetected;
  !nets

let json_num = function J.Float f -> f | J.Int i -> float_of_int i | _ -> nan

(* Seconds from [job_submitted] to [job_started], from the daemon's log. *)
let queue_waits lines =
  let submitted = Hashtbl.create 64 in
  List.filter_map
    (fun line ->
      let j = J.of_string line in
      match (J.member "kind" j, J.member "job" j, J.member "ts" j) with
      | Some (J.String "job_submitted"), Some (J.String id), Some ts ->
        Hashtbl.replace submitted id (json_num ts);
        None
      | Some (J.String "job_started"), Some (J.String id), Some ts ->
        Option.map (fun t0 -> json_num ts -. t0) (Hashtbl.find_opt submitted id)
      | _ -> None)
    lines

let measure_layers args wl cfg =
  let serve = wl.wname = "serve-mix" in
  let preps = List.map prepare wl.circuits in
  List.iter
    (fun p ->
      ignore
        (span "compiled.of_circuit" (fun () -> Fst_sim.Compiled.of_circuit p.scanned)))
    preps;
  (* The sampler runs through the untraced and the traced pass only, so
     that [obs.overhead_frac] compares the two at the same host speed. *)
  Atomic.set sampling true;
  let untraced = flow_pass ~wl:wl.wname ~family:wl.family ~cfg preps in
  let dir =
    Filename.concat bench_dir (Printf.sprintf "perfbench-obs/%s-c%d" wl.wname wl.family)
  in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let traced_runs = List.map (traced_flow ~cfg ~dir) preps in
  Atomic.set sampling false;
  let ts = List.map fst traced_runs in
  let untraced = sum (List.map (fun r -> norm r.latency) untraced) in
  let traced = sum (List.map (fun (_, s) -> norm s) traced_runs) in
  List.iter
    (fun t ->
      let name = t.prep.circuit.name in
      record_op name
        (report_errors ~wl:wl.wname ~family:wl.family ~circuit:name
           (Report.of_result t.result)))
    ts;
  let atpg f = float_of_int (sum_int (List.map (fun t -> f t.result.Flow.atpg) ts)) in
  let decisions = sum_int (List.map (podem_probe cfg) ts) in
  let nets = sum_int (List.map (unroll_probe cfg) ts) in
  (* The serve layer: serve-mix replays its own request list; the flow
     workloads submit each circuit as an sca job three times (one miss,
     two hits) through the same daemon. *)
  let sp =
    if serve then
      serve_pass ~cfg ~kind:Protocol.Flow ~with_log:true wl.circuits
        (serve_requests ~seed:args.seed wl.circuits)
    else
      serve_pass ~cfg ~kind:Protocol.Sca ~with_log:true wl.circuits
        [ [ wl.circuits ]; [ wl.circuits @ wl.circuits ] ]
  in
  check_submits ~wl:wl.wname ~family:wl.family ~flow:serve sp.subs;
  let lat pred = List.filter_map (fun r -> if pred r then Some r.span.dt else None) sp.subs in
  let is_error r = Result.is_error r.reply in
  let fsim_spans =
    List.concat_map
      (fun t ->
        List.filter_map
          (fun s ->
            if s.Analyze.cat = "fsim" then Some (s.Analyze.t1 -. s.Analyze.t0)
            else None)
          t.spans)
      ts
  in
  let fsim_self =
    sum
      (List.concat_map
         (fun t ->
           List.filter_map
             (fun ns ->
               if String.starts_with ~prefix:"fsim." ns.Analyze.ns_name then
                 Some ns.Analyze.ns_self_s
               else None)
             (Analyze.self_times t.spans))
         ts)
  in
  let count name v = m name "count" (float_of_int v) in
  let c = sp.cache in
  [
    m "step2_fsim.wall_s" "s" (phase_s ts "step2-fsim");
    count "fsim.calls" (sum_counters ts (family "fsim." ".calls"));
    count "fsim.faults" (sum_counters ts (family "fsim." ".faults"));
    m "fsim.call_s.p50" "s" (median fsim_spans);
    m "fsim.serial_self_s" "s" fsim_self;
    m "pool.busy_frac.d0" "ratio" (busy_frac ts 0);
    count "pool.chunks" (sum_counters ts (family "pool." ".chunks"));
    count "pool.jobs_effective" (Pool.effective_jobs ~jobs:cfg.Config.jobs max_int);
    m "step2_atpg.wall_s" "s" (phase_s ts "step2-atpg");
    m "podem.runs" "count" (atpg (fun a -> a.Flow.podem_runs));
    m "podem.decisions" "count" (atpg (fun a -> a.Flow.podem_decisions));
    m "podem.backtracks" "count" (atpg (fun a -> a.Flow.podem_backtracks));
    m "podem.implications" "count" (atpg (fun a -> a.Flow.podem_implications));
    m "podem.aborted_limit" "count" (atpg (fun a -> a.Flow.podem_aborted_limit));
    m "podem.aborted_deadline" "count" (atpg (fun a -> a.Flow.podem_aborted_deadline));
    m "podem.decisions_per_s" "1/s"
      (let s = span_total "podem.probe" in
       if s > 0.0 then float_of_int decisions /. s else 0.0);
    m "scoap.compute_s" "s" (span_total "scoap.compute");
    m "step3.wall_s" "s" (phase_s ts "step3");
    m "seq.runs" "count" (atpg (fun a -> a.Flow.seq_runs));
    m "seq.backtracks" "count" (atpg (fun a -> a.Flow.seq_backtracks));
    count "step3.circuits"
      (sum_int
         (List.map
            (fun t ->
              let s3 = t.result.Flow.step3 in
              s3.Flow.group_circuits + s3.Flow.final_circuits)
            ts));
    m "unroll.build_s" "s" (span_total "unroll.build");
    count "unroll.nodes" nets;
    m "seq.podem_s" "s" (span_total "seq.podem");
    m "sca.wall_s" "s" (phase_s ts "sca");
    count "sca.implications" (sum_counters ts (( = ) "sca.implications"));
    count "sca.untestable" (sum_counters ts (( = ) "sca.untestable_static"));
    m "classify.wall_s" "s" (phase_s ts "classify");
    m "gen.generate_s" "s" (sum (List.map (fun p -> p.gen_s) preps));
    m "tpi.insert_s" "s" (sum (List.map (fun p -> p.tpi_s) preps));
    m "scan.verify_shift_s" "s" (sum (List.map (fun p -> p.verify_s) preps));
    m "compiled.of_circuit_s" "s" (span_total "compiled.of_circuit");
    m "flow.gc.major_collections" "count"
      (max_gauge ts "flow.gc.major_collections" -. float_of_int gc0);
    m "flow.gc.heap_words" "words" (max_gauge ts "flow.gc.heap_words");
    count "cache.hits" c.Cache.hits;
    count "cache.misses" c.Cache.misses;
    m "cache.hit_ratio" "ratio"
      (float_of_int c.Cache.hits /. float_of_int (max 1 (c.Cache.hits + c.Cache.misses)));
    m "serve.hit_p50_ms" "ms" (1e3 *. median (lat cached));
    m "serve.miss_p50_ms" "ms"
      (1e3 *. median (lat (fun r -> not (cached r || is_error r))));
    m "serve.queue_wait_p50_ms" "ms" (1e3 *. median (queue_waits sp.log_lines));
    m "obs.overhead_frac" "ratio" ((traced /. untraced) -. 1.0);
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let stamp args wl (cfg : Config.t) =
  let jobs = cfg.Config.jobs in
  (* [jobs_effective] is what the pool actually runs with on this host. *)
  J.Obj
    [
      ("benchmark", J.String "perfbench/2");
      ("workload", J.String wl.wname);
      ("seed", J.Int args.seed);
      ("circuit_seed", J.Int wl.family);
      ("trace", J.Bool args.trace);
      ("scale", J.Float wl.scale);
      ("nproc", J.Int nproc);
      ("jobs", J.Int jobs);
      ("jobs_effective", J.Int (Pool.effective_jobs ~jobs max_int));
      ("ocaml", J.String Sys.ocaml_version);
      ("config_fingerprint", J.String (Config.fingerprint cfg));
    ]

let () =
  let args = parse_args () in
  (* A wedged daemon or flow must not hang the benchmark: give up without
     a result (170 s at --seconds 30). *)
  ignore
    (Thread.create
       (fun () ->
         Thread.delay (args.seconds +. 140.0);
         prerr_endline "perfbench: no result in time, giving up";
         Unix._exit 3)
       ());
  let wl = workload_of args in
  let cfg = flow_config ~scale:wl.scale in
  start_sampler ();
  let metrics =
    if args.trace then measure_layers args wl cfg
    else if wl.wname = "serve-mix" then measure_serve args wl cfg
    else measure_flows args wl cfg
  in
  List.iter (fun e -> Printf.printf "FAIL %s\n" e) (List.rev gate.messages);
  Hashtbl.fold (fun c v acc -> (c, v) :: acc) seen []
  |> List.sort compare
  |> List.iter (fun (c, v) -> Printf.printf "verdict %s %s\n" c (verdict_to_string v));
  Printf.printf "%s\n" (J.to_string (J.Obj [ ("stamp", stamp args wl cfg) ]));
  let error_rate =
    if args.trace then []
    else
      [
        m "error_rate" "ratio"
          (float_of_int gate.failed /. float_of_int (max 1 gate.attempted));
      ]
  in
  List.iter
    (fun x -> Printf.printf "  %-26s %16.6f %s\n" x.mname x.value x.unit_)
    (metrics @ error_rate);
  let doc =
    J.Obj
      [
        ("correct", J.Bool (gate.failed = 0));
        ("attempted", J.Int (max 1 gate.attempted));
        ("failed", J.Int gate.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun x ->
                 ( x.mname,
                   J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (J.to_string doc)
