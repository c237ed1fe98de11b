open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_atpg
open Fst_tpi
open Fst_core
module Q = QCheck

let scan_small ?(gates = 120) ?(ffs = 8) seed =
  let c = Helpers.small_seq_circuit ~gates ~ffs seed in
  Tpi.insert ~options:Tpi.default_options c

(* Sequential tests produced on the scan-mode model must be confirmed by
   fault simulation of their realized scan sequences. *)
let prop_seq_tests_are_real =
  Q.Test.make ~name:"sequential ATPG tests confirmed by fault simulation"
    ~count:8
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let scanned, config = scan_small seed in
      let faults =
        Fst_fault.Fault.collapse scanned (Fst_fault.Fault.universe scanned)
      in
      let cls = Classify.run scanned config faults in
      let positions = Hashtbl.create 16 in
      Array.iter
        (fun ch ->
          Array.iteri
            (fun pos ff -> Hashtbl.replace positions ff (ch.Scan.index, pos))
            ch.Scan.ffs)
        config.Scan.chains;
      let checked = ref 0 and confirmed = ref 0 in
      Array.iter
        (fun i ->
          if !checked < 6 then begin
            let info = cls.Classify.infos.(i) in
            let fault = info.Classify.fault in
            (* Chain-aware controllability/observability from the fault's
               locations, as the flow derives them. *)
            let fp =
              Group.footprint_of ~index:0
                ~locations:
                  (List.map (fun (ch, s, _) -> (ch, s)) info.Classify.locations)
            in
            let bounds = fp.Group.spans in
            let controllable ff =
              match Hashtbl.find_opt positions ff with
              | None -> false
              | Some (chain, pos) -> (
                match List.assoc_opt chain bounds with
                | None -> true
                | Some (m, _) -> pos < m)
            in
            let observable ff =
              match Hashtbl.find_opt positions ff with
              | None -> false
              | Some (chain, pos) -> (
                match List.assoc_opt chain bounds with
                | None -> true
                | Some (_, o) -> pos >= o)
            in
            match
              Seq.run scanned ~constraints:config.Scan.constraints
                ~controllable_ff:controllable ~observable_ff:observable ~fault
                ~frames_list:[ 1; 2; 4 ] ~backtrack_limit:300
            with
            | Seq.Seq_test test, _ ->
              incr checked;
              let stim = Sequences.of_seq_test scanned config test in
              (match
                 Fst_fsim.Fsim.Serial.detect scanned ~fault
                   ~observe:scanned.Circuit.outputs stim
               with
               | Some _ -> incr confirmed
               | None -> ())
            | Seq.Seq_aborted, _ -> ()
          end)
        cls.Classify.hard;
      (* Every found test must confirm. (No test found at all is fine —
         budgets are small here.) *)
      !confirmed = !checked)

let test_seq_finds_shift_register_fault () =
  (* In a plain shift register scanned by TPI, any chain fault has an easy
     sequential test when the whole chain is controllable/observable. *)
  let b = Builder.create ~name:"sr" () in
  let si = Builder.add_input ~name:"d" b in
  let f0 = Builder.add_dff ~name:"f0" b ~data:si in
  let f1 = Builder.add_dff ~name:"f1" b ~data:f0 in
  let po = Builder.add_gate ~name:"po" b Gate.Not [ f1 ] in
  Builder.mark_output b po;
  let c = Builder.freeze b in
  let scanned, config = Tpi.insert c in
  let fault = { Fault.site = Fault.Stem f0; stuck = true } in
  match
    Seq.run scanned ~constraints:config.Scan.constraints
      ~controllable_ff:(fun _ -> true)
      ~observable_ff:(fun _ -> true)
      ~fault ~frames_list:[ 1; 2 ] ~backtrack_limit:200
  with
  | Seq.Seq_test test, stats ->
    Alcotest.(check bool) "at least one run" true (stats.Seq.runs >= 1);
    let stim = Sequences.of_seq_test scanned config test in
    (match
       Fst_fsim.Fsim.Serial.detect scanned ~fault
         ~observe:scanned.Circuit.outputs stim
     with
     | Some _ -> ()
     | None -> Alcotest.fail "sequential test did not confirm")
  | Seq.Seq_aborted, _ -> Alcotest.fail "expected a test"

let test_deadline_aborts () =
  let scanned, config = scan_small 3L in
  let fault =
    { Fault.site = Fault.Stem config.Scan.chains.(0).Scan.ffs.(0); stuck = true }
  in
  (* An already-tripped abort hook (e.g. an expired wall-clock deadline)
     aborts immediately without any run. *)
  match
    Seq.run ~should_abort:(fun () -> true) scanned
      ~constraints:config.Scan.constraints
      ~controllable_ff:(fun _ -> true)
      ~observable_ff:(fun _ -> true)
      ~fault ~frames_list:[ 1; 2; 4 ] ~backtrack_limit:200
  with
  | Seq.Seq_aborted, stats -> Alcotest.(check int) "no runs" 0 stats.Seq.runs
  | Seq.Seq_test _, _ -> Alcotest.fail "deadline ignored"

(* One group's targets planned through the group's shared models give
   the same result and statistics as a fresh per-target [Seq.run] (its
   own unroll per frame count), and planning them in reverse order on a
   second shared set changes nothing: no plane or assignment state leaks
   from one run into the next on a model. *)
let prop_shared_models_match_fresh =
  Q.Test.make ~name:"shared group models = fresh per-target unroll"
    ~count:6
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let scanned, config = scan_small ~gates:160 ~ffs:12 seed in
      let faults = Fault.collapse scanned (Fault.universe scanned) in
      let cls = Classify.run scanned config faults in
      let positions = Hashtbl.create 16 in
      Array.iter
        (fun ch ->
          Array.iteri
            (fun pos ff -> Hashtbl.replace positions ff (ch.Scan.index, pos))
            ch.Scan.ffs)
        config.Scan.chains;
      let footprints =
        Array.to_list cls.Classify.hard
        |> List.mapi (fun k i ->
               let info = cls.Classify.infos.(i) in
               Group.footprint_of ~index:k
                 ~locations:
                   (List.map
                      (fun (ch, s, _) -> (ch, s))
                      info.Classify.locations))
      in
      let dist =
        Group.paper_params ~maxsize:(Sequences.max_chain_length config)
          ~floor_scale:1.0
      in
      let targets = function
        | Group.Solo fp -> [ fp ]
        | Group.Shared { leader; members } -> leader :: members
        | Group.Cluster { members; _ } -> members
      in
      (* the group with the most targets *)
      match
        List.sort
          (fun a b ->
            Int.compare (List.length (targets b)) (List.length (targets a)))
          (Group.make dist footprints)
      with
      | [] -> true
      | group :: _ ->
        (* On the group's own bounds these small circuits' hard faults
           mostly abort; with every flip-flop controllable and observable
           (no bounds) most of them get a test, so both are checked. *)
        let agree bounds =
          let window pick ff =
            match Hashtbl.find_opt positions ff with
            | None -> false
            | Some (chain, pos) -> (
              match List.assoc_opt chain bounds with
              | None -> true
              | Some b -> pick pos b)
          in
          let controllable_ff = window (fun pos (m, _) -> pos < m) in
          let observable_ff = window (fun pos (_, o) -> pos >= o) in
          let constraints = config.Scan.constraints in
          let hard_faults =
            List.map
              (fun fp ->
                cls.Classify.infos.(cls.Classify.hard.(fp.Group.index))
                  .Classify.fault)
              (targets group)
          in
          let plan run fault =
            run ~fault ~frames_list:[ 1; 2; 4 ] ~backtrack_limit:100
          in
          let fresh =
            List.map
              (plan
                 (Seq.run scanned ~constraints ~controllable_ff ~observable_ff))
              hard_faults
          in
          let on_shared faults =
            let ms =
              Seq.models scanned ~constraints ~controllable_ff ~observable_ff
            in
            List.map (plan (Seq.run_on ms)) faults
          in
          let shared = on_shared hard_faults in
          let reversed = List.rev (on_shared (List.rev hard_faults)) in
          fresh = shared && fresh = reversed
        in
        agree (Group.bounds_of_group group) && agree [])

let suite =
  [
    Helpers.qcheck prop_seq_tests_are_real;
    Alcotest.test_case "shift-register fault" `Quick test_seq_finds_shift_register_fault;
    Alcotest.test_case "deadline aborts" `Quick test_deadline_aborts;
    Helpers.qcheck prop_shared_models_match_fresh;
  ]
