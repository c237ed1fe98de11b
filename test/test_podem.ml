open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_atpg
module Q = QCheck

let comb_view (c : Circuit.t) =
  View.make c
    ~free:(Array.to_list c.Circuit.inputs)
    ~fixed:[]
    ~observe:(Array.to_list c.Circuit.outputs |> List.map (fun o -> View.Onet o))

let run_assignment_detects c fault assignment =
  let stim = [| assignment |] in
  Fst_fsim.Fsim.Serial.detect c ~fault ~observe:c.Circuit.outputs stim <> None

let test_and_gate_test () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let b2 = Builder.add_input ~name:"b" b in
  let y = Builder.add_gate ~name:"y" b Gate.And [ a; b2 ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let view = comb_view c in
  let fault = { Fault.site = Fault.Stem y; stuck = false } in
  match Podem.run view ~faults:[ fault ] with
  | Podem.Test assignment, _ ->
    Alcotest.(check bool) "test detects" true
      (run_assignment_detects c fault assignment);
    (* The only test for y s-a-0 is a=b=1. *)
    Alcotest.(check bool) "a assigned 1" true
      (List.mem (a, V3.One) assignment);
    Alcotest.(check bool) "b assigned 1" true
      (List.mem (b2, V3.One) assignment)
  | (Podem.Untestable | Podem.Aborted), _ -> Alcotest.fail "expected a test"

let test_redundant_fault_untestable () =
  (* y = OR(a, NOT a) is constant 1: y s-a-1 is untestable. *)
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let na = Builder.add_gate ~name:"na" b Gate.Not [ a ] in
  let y = Builder.add_gate ~name:"y" b Gate.Or [ a; na ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let fault = { Fault.site = Fault.Stem y; stuck = true } in
  match Podem.run (comb_view c) ~faults:[ fault ] with
  | Podem.Untestable, _ -> ()
  | Podem.Test _, _ -> Alcotest.fail "redundant fault got a test"
  | Podem.Aborted, _ -> Alcotest.fail "redundant fault aborted"

let test_fixed_input_blocks_test () =
  (* y = AND(a, k) with k tied to 0: a faults are untestable. *)
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let k = Builder.add_input ~name:"k" b in
  let y = Builder.add_gate ~name:"y" b Gate.And [ a; k ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let view =
    View.make c ~free:[ a ] ~fixed:[ (k, V3.Zero) ] ~observe:[ View.Onet y ]
  in
  let fault = { Fault.site = Fault.Stem a; stuck = true } in
  match Podem.run view ~faults:[ fault ] with
  | Podem.Untestable, _ -> ()
  | Podem.Test _, _ -> Alcotest.fail "blocked fault got a test"
  | Podem.Aborted, _ -> Alcotest.fail "blocked fault aborted"

let test_branch_fault_test () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let y1 = Builder.add_gate ~name:"y1" b Gate.Buf [ a ] in
  let y2 = Builder.add_gate ~name:"y2" b Gate.Not [ a ] in
  Builder.mark_output b y1;
  Builder.mark_output b y2;
  let c = Builder.freeze b in
  let fault = { Fault.site = Fault.Branch { node = y1; pin = 0 }; stuck = true } in
  match Podem.run (comb_view c) ~faults:[ fault ] with
  | Podem.Test assignment, _ ->
    Alcotest.(check bool) "test detects" true
      (run_assignment_detects c fault assignment)
  | (Podem.Untestable | Podem.Aborted), _ ->
    Alcotest.fail "branch fault should be testable"

(* PODEM agrees with exhaustive search on random small circuits:
   - a produced test must actually detect (verified by fault simulation);
   - an Untestable verdict must match the brute-force answer. *)
let prop_podem_vs_brute_force =
  Q.Test.make ~name:"podem agrees with brute force" ~count:30
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let rng = Fst_gen.Rng.create seed in
      let c = Helpers.random_comb_circuit rng ~inputs:5 ~gates:14 in
      let view = comb_view c in
      let scoap = Fst_testability.Scoap.compute view in
      let faults = Fault.collapse c (Fault.universe c) in
      let ok = ref true in
      Array.iter
        (fun fault ->
          match Podem.run ~backtrack_limit:4000 ~scoap view ~faults:[ fault ] with
          | Podem.Test assignment, _ ->
            if not (run_assignment_detects c fault assignment) then ok := false
          | Podem.Untestable, _ ->
            if Helpers.brute_force_detectable c fault then ok := false
          | Podem.Aborted, _ -> ())
        faults;
      !ok)

(* Multi-site injection: a fault on every copy of a duplicated subcircuit
   (as used in time-frame expansion) is found when any copy detects. *)
let test_multi_site () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let en = Builder.add_input ~name:"en" b in
  let y1 = Builder.add_gate ~name:"y1" b Gate.And [ a; en ] in
  let y2 = Builder.add_gate ~name:"y2" b Gate.Or [ a; en ] in
  Builder.mark_output b y1;
  Builder.mark_output b y2;
  let c = Builder.freeze b in
  let faults =
    [
      { Fault.site = Fault.Stem y1; stuck = false };
      { Fault.site = Fault.Stem y2; stuck = false };
    ]
  in
  match Podem.run (comb_view c) ~faults with
  | Podem.Test _, _ -> ()
  | (Podem.Untestable | Podem.Aborted), _ ->
    Alcotest.fail "multi-site fault should be trivially testable"

let test_stats_accounting () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let y = Builder.add_gate ~name:"y" b Gate.Not [ a ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let fault = { Fault.site = Fault.Stem y; stuck = false } in
  let _, st = Podem.run (comb_view c) ~faults:[ fault ] in
  Alcotest.(check bool) "implied at least once" true (st.Podem.implications >= 1)

(* ---- oracle agreement --------------------------------------------------

   The event-driven engine must make exactly the search choices of the
   pre-compiled full-resimulation engine kept in [Podem_oracle]: same
   verdict, same test assignment, same decision/backtrack/implication
   counts. *)

let same_run ?impossible ~backtrack_limit ~model view faults =
  let old_r, old_s =
    Podem_oracle.run ~backtrack_limit ?impossible view ~faults
  in
  let new_r, new_s =
    Podem.run ~backtrack_limit ?impossible ~model view ~faults
  in
  let same_result =
    match old_r, new_r with
    | Podem_oracle.Test a, Podem.Test b ->
      List.equal (fun (n, v) (n', v') -> n = n' && V3.equal v v') a b
    | Podem_oracle.Untestable, Podem.Untestable
    | Podem_oracle.Aborted, Podem.Aborted ->
      true
    | _ -> false
  in
  same_result
  && old_s.Podem_oracle.backtracks = new_s.Podem.backtracks
  && old_s.Podem_oracle.decisions = new_s.Podem.decisions
  && old_s.Podem_oracle.implications = new_s.Podem.implications

(* A pure pseudo-random [impossible] predicate, or none. *)
let random_hints rng =
  if Fst_gen.Rng.int rng 2 = 0 then None
  else
    let salt = Fst_gen.Rng.int rng 1_000_000 in
    let rate = 3 + Fst_gen.Rng.int rng 8 in
    Some (fun net v -> Hashtbl.hash (salt, net, V3.to_int v) mod rate = 0)

let all_agree rng view faults =
  let model = Podem.model view in
  List.for_all
    (fun faults ->
      let backtrack_limit = Fst_gen.Rng.int rng 51 in
      let impossible = random_hints rng in
      same_run ?impossible ~backtrack_limit ~model view faults)
    faults

(* Random combinational views: random free/fixed inputs (fixed ones tied
   to 0, 1 or X), primary outputs plus random gate-pin observation
   points; every single stem and branch fault. *)
let prop_oracle_comb =
  Q.Test.make ~name:"event-driven podem = oracle on combinational views"
    ~count:40
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let rng = Fst_gen.Rng.create seed in
      let c = Helpers.random_comb_circuit rng ~inputs:6 ~gates:24 in
      let free, fixed =
        Array.to_list c.Circuit.inputs
        |> List.partition (fun _ -> Fst_gen.Rng.int rng 4 > 0)
      in
      let fixed =
        List.map
          (fun i -> (i, Fst_gen.Rng.pick rng [| V3.Zero; V3.One; V3.X |]))
          fixed
      in
      let pins =
        List.filter_map
          (fun i ->
            match c.Circuit.nodes.(i) with
            | Circuit.Gate (_, fi) when Fst_gen.Rng.int rng 6 = 0 ->
              let pin = Fst_gen.Rng.int rng (Array.length fi) in
              Some (View.Opin { node = i; pin })
            | _ -> None)
          (List.init (Circuit.num_nets c) Fun.id)
      in
      let view =
        View.make c ~free ~fixed
          ~observe:
            (List.map (fun o -> View.Onet o) (Array.to_list c.Circuit.outputs)
            @ pins)
      in
      let faults = Fault.collapse c (Fault.universe c) in
      all_agree rng view (Array.to_list faults |> List.map (fun f -> [ f ])))

(* Scan-mode views of sequential circuits: flip-flop outputs free, their
   data pins observed through [Opin] points, so branch faults on a
   flip-flop data pin are seen only at an observation pin. *)
let prop_oracle_scan_mode =
  Q.Test.make ~name:"event-driven podem = oracle on scan-mode views"
    ~count:15
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let rng = Fst_gen.Rng.create seed in
      let c, _ = Helpers.all_ops_seq_circuit seed in
      let constraints =
        if Fst_gen.Rng.int rng 2 = 0 then []
        else [ (c.Circuit.inputs.(0), V3.Zero) ]
      in
      let view = View.scan_mode c ~constraints () in
      let faults = Fault.collapse c (Fault.universe c) in
      all_agree rng view (Array.to_list faults |> List.map (fun f -> [ f ])))

(* Time-frame-unrolled models at 1-4 frames: every fault replicated
   through [Unroll.map_fault] (multi-site stem faults, gate-pin and
   flip-flop data-pin branch faults, capture buffers), with random
   controllable/observable flip-flops. *)
let prop_oracle_unrolled =
  Q.Test.make ~name:"event-driven podem = oracle on unrolled models"
    ~count:12
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let rng = Fst_gen.Rng.create seed in
      let c, _ = Helpers.all_ops_seq_circuit seed in
      let coin () = Fst_gen.Rng.int rng 3 > 0 in
      let ctrl = Array.map (fun _ -> coin ()) c.Circuit.dffs in
      let obsv = Array.map (fun _ -> coin ()) c.Circuit.dffs in
      let index ff =
        let rec find k = if c.Circuit.dffs.(k) = ff then k else find (k + 1) in
        find 0
      in
      let faults = Fault.collapse c (Fault.universe c) in
      List.for_all
        (fun frames ->
          let u =
            Unroll.build c ~frames ~constraints:[]
              ~controllable_ff:(fun ff -> ctrl.(index ff))
              ~observable_ff:(fun ff -> obsv.(index ff))
          in
          all_agree rng u.Unroll.view
            (Array.to_list faults |> List.map (Unroll.map_fault u)))
        [ 1; 2; 3; 4 ])

let test_model_view_mismatch () =
  let rng = Fst_gen.Rng.create 5L in
  let c = Helpers.random_comb_circuit rng ~inputs:3 ~gates:4 in
  let model = Podem.model (comb_view c) in
  let fault = { Fault.site = Fault.Stem c.Circuit.inputs.(0); stuck = true } in
  Alcotest.check_raises "foreign model rejected"
    (Invalid_argument "Podem.run: model built for another view") (fun () ->
      ignore (Podem.run ~model (comb_view c) ~faults:[ fault ]))

let suite =
  [
    Alcotest.test_case "and gate test" `Quick test_and_gate_test;
    Alcotest.test_case "redundant fault untestable" `Quick test_redundant_fault_untestable;
    Alcotest.test_case "fixed input blocks test" `Quick test_fixed_input_blocks_test;
    Alcotest.test_case "branch fault test" `Quick test_branch_fault_test;
    Helpers.qcheck prop_podem_vs_brute_force;
    Alcotest.test_case "multi-site injection" `Quick test_multi_site;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Helpers.qcheck prop_oracle_comb;
    Helpers.qcheck prop_oracle_scan_mode;
    Helpers.qcheck prop_oracle_unrolled;
    Alcotest.test_case "model of another view" `Quick test_model_view_mismatch;
  ]
