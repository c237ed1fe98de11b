(* Shared fixtures and generators for the test suites. *)

open Fst_logic
open Fst_netlist

let v3 = Alcotest.testable V3.pp V3.equal

let check_v3 = Alcotest.check v3

(* All three-valued values, for exhaustive truth-table checks. *)
let all_v3 = [ V3.Zero; V3.One; V3.X ]

(* A tiny sequential circuit in the spirit of the paper's Figure 2: a
   two-flip-flop chain whose scan path runs through an AND gate with a
   primary-input side input.

       pi0 --------.
                    \
       ff0 --------[AND g0]---- ff1(data)
       ff1 --------[NOT g1]---- po

   Returns (circuit, pi0, ff0, ff1, g0). *)
let figure2_circuit () =
  let b = Builder.create ~name:"fig2" () in
  let pi0 = Builder.add_input ~name:"pi0" b in
  let ff0 = Builder.add_dff_placeholder ~name:"ff0" b in
  let ff1 = Builder.add_dff_placeholder ~name:"ff1" b in
  let g0 = Builder.add_gate ~name:"g0" b Gate.And [ pi0; ff0 ] in
  let g1 = Builder.add_gate ~name:"g1" b Gate.Not [ ff1 ] in
  Builder.connect_dff b ~ff:ff1 ~data:g0;
  Builder.connect_dff b ~ff:ff0 ~data:g1;
  Builder.mark_output b g1;
  (Builder.freeze b, pi0, ff0, ff1, g0)

(* A small combinational circuit with inputs and outputs only, for
   brute-force ATPG cross-checks. *)
let random_comb_circuit rng ~inputs ~gates =
  let b = Builder.create ~name:"comb" () in
  let pis = Array.init inputs (fun i -> Builder.add_input ~name:(Printf.sprintf "i%d" i) b) in
  let pool = ref (Array.to_list pis) in
  let nets = ref (Array.to_list pis) in
  for k = 0 to gates - 1 do
    let g =
      Fst_gen.Rng.weighted rng
        [
          (3, Gate.Nand); (3, Gate.Nor); (2, Gate.And); (2, Gate.Or);
          (2, Gate.Not); (1, Gate.Buf); (1, Gate.Xor); (1, Gate.Xnor);
        ]
    in
    let arity = match g with Gate.Not | Gate.Buf -> 1 | _ -> 2 in
    let arr = Array.of_list !pool in
    let fanins = List.init arity (fun _ -> Fst_gen.Rng.pick rng arr) in
    let net = Builder.add_gate ~name:(Printf.sprintf "g%d" k) b g fanins in
    pool := net :: !pool;
    nets := net :: !nets
  done;
  (* Outputs: nets with no consumers. *)
  let frozen_probe = !pool in
  let used = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match Builder.node b n with
      | Circuit.Gate (_, fi) -> Array.iter (fun f -> Hashtbl.replace used f ()) fi
      | _ -> ())
    frozen_probe;
  List.iter
    (fun n -> if not (Hashtbl.mem used n) then Builder.mark_output b n)
    (List.rev frozen_probe);
  Builder.freeze b

(* A small random sequential circuit via the generator. *)
let small_seq_circuit ?(gates = 80) ?(ffs = 8) seed =
  Fst_gen.Gen.generate
    { Fst_gen.Gen.name = Printf.sprintf "t%Ld" seed; gates; ffs; pis = 5; pos = 3; seed }

(* A random sequential circuit exercising every gate opcode, for the
   plane-kernel properties: the first eight gates are one of each of
   AND/NAND/OR/NOR/XOR/XNOR/BUF/NOT (multi-input ones with three fanins),
   later ones random with fanin 2-4. Gate [k]'s first fanin is gate
   [k-1] (input 0 for gate 0), so input 0's fanout cone holds every gate
   and every flip-flop. Returns the circuit and its gate nets; [gates]
   must be a multiple of 8 (every eighth gate is an output). *)
let all_ops_seq_circuit ?(pis = 4) ?(ffs = 5) ?(gates = 40) seed =
  let rng = Fst_gen.Rng.create seed in
  let b = Builder.create ~name:"allops" () in
  let ins =
    Array.init pis (fun i -> Builder.add_input ~name:(Printf.sprintf "i%d" i) b)
  in
  let ffs =
    Array.init ffs (fun i ->
        Builder.add_dff_placeholder ~name:(Printf.sprintf "f%d" i) b)
  in
  let ops =
    [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Buf;
       Gate.Not |]
  in
  let pool = ref (Array.to_list ins @ Array.to_list ffs) in
  let prev = ref ins.(0) in
  let gs =
    Array.init gates (fun k ->
        let g = if k < 8 then ops.(k) else Fst_gen.Rng.pick rng ops in
        let arity =
          match g with
          | Gate.Buf | Gate.Not -> 1
          | _ -> if k < 8 then 3 else 2 + Fst_gen.Rng.int rng 3
        in
        let arr = Array.of_list !pool in
        let fanins =
          !prev :: List.init (arity - 1) (fun _ -> Fst_gen.Rng.pick rng arr)
        in
        let net = Builder.add_gate ~name:(Printf.sprintf "g%d" k) b g fanins in
        pool := net :: !pool;
        prev := net;
        net)
  in
  (* Each flip-flop latches an AND with an input, so a 0 on that input
     initializes it: without a reset, XOR-heavy feedback would otherwise
     keep the state X forever and hide every fault. *)
  Array.iteri
    (fun i ff ->
      let data =
        Builder.add_gate b Gate.And
          [ ins.(i mod pis); Fst_gen.Rng.pick rng gs ]
      in
      Builder.connect_dff b ~ff ~data)
    ffs;
  (* Outputs every eighth gate along the chain, so faults deep in it
     still reach an observation point through few X-prone gates. *)
  Array.iteri (fun k g -> if k mod 8 = 7 then Builder.mark_output b g) gs;
  (Builder.freeze b, gs)

(* Exhaustive good/faulty evaluation of a combinational circuit over all
   binary input assignments; returns true if some assignment detects the
   fault at some output. *)
let brute_force_detectable (c : Circuit.t) (fault : Fst_fault.Fault.t) =
  let inputs = c.Circuit.inputs in
  let n = Array.length inputs in
  assert (n <= 16);
  let detected = ref false in
  for code = 0 to (1 lsl n) - 1 do
    if not !detected then begin
      let stim =
        [| Array.to_list
             (Array.mapi
                (fun k pi -> (pi, V3.of_bool (code land (1 lsl k) <> 0)))
                inputs) |]
      in
      match
        Fst_fsim.Fsim.Serial.detect c ~fault ~observe:c.Circuit.outputs stim
      with
      | Some _ -> detected := true
      | None -> ()
    end
  done;
  !detected

let contains_substring ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* Deterministic qcheck registration: a fixed random state keeps the suite
   reproducible run to run. *)
let qcheck test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]) test
