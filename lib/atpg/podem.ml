open Fst_logic
open Fst_netlist
open Fst_fault
module Scoap = Fst_testability.Scoap
module Compiled = Fst_sim.Compiled

type result = Test of (int * V3.t) list | Untestable | Aborted
type stats = { backtracks : int; decisions : int; implications : int }

(* ---- the shared search model ------------------------------------------- *)

(* Everything about a view that does not depend on the fault: the compiled
   circuit, SCOAP permuted into slot space, the observation structure and
   the good plane settled with every free input unknown (the state every
   search starts from). Immutable once built, so one model serves every
   fault of a view, on any domain. *)
type model = {
  view : View.t;
  cc : Compiled.t;
  cc0 : int array; (* per slot *)
  cc1 : int array;
  obs : int array;
  free : Bytes.t; (* per slot: '\001' = assignable input *)
  observed : Bytes.t; (* per slot: [obs_onet] / [obs_source] bits *)
  opins : (int * int * int) array;
      (* every [Opin] point: (node slot, pin, source slot) *)
  settled : Bytes.t;
  key_bits : int; (* bits of a net id in a frontier key *)
}

let obs_onet = 1 (* an [Onet] point observes the slot *)
let obs_source = 2 (* the slot feeds some observation point *)

let model ?scoap view =
  let c = view.View.circuit in
  let cc = Compiled.of_circuit c in
  let m = match scoap with Some s -> s | None -> Scoap.compute view in
  let n = cc.Compiled.n_slots and perm = cc.Compiled.perm in
  let by_slot a = Array.init n (fun s -> a.(cc.Compiled.net_of.(s))) in
  let free = Bytes.make n '\000' in
  Array.iteri
    (fun i f -> if f then Bytes.set free perm.(i) '\001')
    view.View.free;
  let observed = Bytes.make n '\000' in
  let mark s bit =
    Bytes.set observed s (Char.chr (Char.code (Bytes.get observed s) lor bit))
  in
  let opins = ref [] in
  Array.iter
    (fun op ->
      let src = perm.(View.obs_source_net view op) in
      mark src obs_source;
      match op with
      | View.Onet _ -> mark src obs_onet
      | View.Opin { node; pin } -> opins := (perm.(node), pin, src) :: !opins)
    view.View.observe;
  let settled = Compiled.make_vec cc in
  Array.iteri
    (fun i v ->
      match v, c.Circuit.nodes.(i) with
      | Some v, (Circuit.Input | Circuit.Dff _) ->
        Compiled.set settled perm.(i) (V3b.of_v3 v)
      | _ -> ())
    view.View.fixed;
  Compiled.eval cc settled;
  {
    view;
    cc;
    cc0 = by_slot m.Scoap.cc0;
    cc1 = by_slot m.Scoap.cc1;
    obs = by_slot m.Scoap.obs;
    free;
    observed;
    opins = Array.of_list (List.rev !opins);
    settled;
    key_bits =
      (let rec bits b = if 1 lsl b >= n then b else bits (b + 1) in
       bits 1);
  }

(* ---- one search ---------------------------------------------------------- *)

(* Per-slot flag bits of a run. *)
let f_cone = 1 (* in the faults' static fanout cone (set by [cone_mark]) *)
let f_branch = 2 (* a gate or flip-flop carrying branch-fault overrides *)
let f_stem = 4 (* stem-fault site: its faulty value is forced *)
let f_listed = 8 (* present in the frontier buffer *)
let f_frontier = 16 (* a current D-frontier member *)
let f_queued = 32 (* scheduled for evaluation *)
let f_reach = 64 (* x-path memo: reaches an observation source *)
let f_noreach = 128 (* x-path memo: does not *)

(* Values are kept as two V3b planes over slot space: the good machine and
   the faulty machine, which embeds stem-fault injections; branch faults
   are applied at the consumer pin on read. Implication is event-driven:
   [imply] re-evaluates only the gates downstream of the free inputs
   whose assignment changed since the last call, level by level, and
   stops wherever neither plane changes. Forward implication is a pure
   function of the assignment, so backtracking needs no undo trail. The
   fault-effect counts and the D-frontier are kept up to date as a side
   effect of propagation. *)
type engine = {
  m : model;
  good : Bytes.t;
  fault : Bytes.t;
  assigned : Bytes.t; (* per slot; meaningful for free slots only *)
  flags : Bytes.t;
  stems : (int * V3b.code) list; (* (slot, stuck) *)
  branches : (int * int * V3b.code) list; (* (node slot, pin, stuck) *)
  branch_src : (int * V3b.code) list; (* (source slot, stuck) per branch *)
  opins : (int * V3b.code) array;
      (* (source slot, pin override or 0) of the [Opin] points that can
         see an effect *)
  sites : (int * V3b.code) list; (* (source slot, stuck) for excitation *)
  impossible : int -> V3.t -> bool;
      (* statically proven unreachable literals (Fst_sca hints, by net id);
         pruning them keeps the search exhaustive because a [true] answer
         is a theorem about every assignment *)
  mutable net_effects : int; (* slots whose planes disagree *)
  mutable obs_effects : int; (* of those, slots an [Onet] point observes *)
  mutable dirty : int list; (* free slots assigned since the last imply *)
  queue : int array; (* per-level event buckets, at [level_off] offsets *)
  level_cnt : int array;
  mutable lo_level : int;
  mutable hi_level : int;
  mutable frontier : int array; (* gate slots; see [f_listed] *)
  mutable n_frontier : int;
  mutable memo : int array; (* slots carrying an x-path memo bit *)
  mutable n_memo : int;
  mutable exhaustive : bool;
  mutable backtracks : int;
  mutable decisions : int;
  mutable implications : int;
}

let get = Compiled.get
let flag e s = Char.code (Bytes.unsafe_get e.flags s)

let set_flag e s bits =
  Bytes.unsafe_set e.flags s (Char.unsafe_chr (flag e s lor bits))

let clear_flag e s bits =
  Bytes.unsafe_set e.flags s (Char.unsafe_chr (flag e s land lnot bits))

let push_grow arr n s =
  let arr =
    if n < Array.length arr then arr
    else begin
      let bigger = Array.make (2 * Array.length arr) 0 in
      Array.blit arr 0 bigger 0 n;
      bigger
    end
  in
  arr.(n) <- s;
  arr

let schedule e s =
  let fl = flag e s in
  if fl land f_queued = 0 then begin
    set_flag e s f_queued;
    let cc = e.m.cc in
    let l = cc.Compiled.slot_level.(s) in
    let k = e.level_cnt.(l) in
    e.queue.(cc.Compiled.level_off.(l) + k) <- s;
    e.level_cnt.(l) <- k + 1;
    if l < e.lo_level then e.lo_level <- l;
    if l > e.hi_level then e.hi_level <- l
  end

(* Publishes new values for slot [s]: keeps the effect counts and
   schedules every consumer gate when either plane changed. *)
let write e s g f =
  let og = get e.good s and ofv = get e.fault s in
  if og <> g || ofv <> f then begin
    Compiled.set e.good s g;
    Compiled.set e.fault s f;
    let was = V3b.detects ~good:og ~faulty:ofv in
    let now = V3b.detects ~good:g ~faulty:f in
    if was <> now then begin
      let d = if now then 1 else -1 in
      e.net_effects <- e.net_effects + d;
      if Char.code (Bytes.unsafe_get e.m.observed s) land obs_onet <> 0 then
        e.obs_effects <- e.obs_effects + d
    end;
    let cc = e.m.cc in
    for i = cc.Compiled.fanout_off.(s) to cc.Compiled.fanout_off.(s + 1) - 1 do
      let c = Array.unsafe_get cc.Compiled.fanout i in
      if c >= cc.Compiled.n_level0 then schedule e c
    done
  end

let stem_code e s = List.assoc s e.stems

(* The stuck value overriding pin [pin] of slot [s], or 0 for none. *)
let rec branch_code branches s pin =
  match branches with
  | [] -> 0
  | (n, p, code) :: rest ->
    if n = s && p = pin then code else branch_code rest s pin

(* Faulty value pin [pin] of gate slot [s] reads from fanin slot [src]. *)
let pin_fault e fl s pin src =
  if fl land f_branch = 0 then get e.fault src
  else
    match branch_code e.branches s pin with
    | 0 -> get e.fault src
    | code -> code

let eval_fault e fl s k =
  if fl land f_stem <> 0 then stem_code e s
  else if fl land f_branch = 0 then Compiled.eval_gate e.m.cc e.fault k
  else begin
    let cc = e.m.cc in
    let o = cc.Compiled.fanin_off.(k) in
    Compiled.eval_gate_via cc
      ~read:(fun i -> pin_fault e fl s (i - o) cc.Compiled.fanin.(i))
      k
  end

(* D-frontier membership of cone gate [s]: an output still unknown on
   either plane, and a fault effect on some input pin. *)
let update_frontier e fl s k =
  let cc = e.m.cc in
  let member =
    (get e.good s = V3b.x || get e.fault s = V3b.x)
    &&
    let o = cc.Compiled.fanin_off.(k) in
    let o_hi = cc.Compiled.fanin_off.(k + 1) in
    let rec any i =
      i < o_hi
      &&
      let src = Array.unsafe_get cc.Compiled.fanin i in
      V3b.detects ~good:(get e.good src) ~faulty:(pin_fault e fl s (i - o) src)
      || any (i + 1)
    in
    any o
  in
  if member then begin
    if fl land f_listed = 0 then begin
      e.frontier <- push_grow e.frontier e.n_frontier s;
      e.n_frontier <- e.n_frontier + 1
    end;
    set_flag e s (f_frontier lor f_listed)
  end
  else if fl land f_frontier <> 0 then clear_flag e s f_frontier

(* Drains the event buckets in level order; a gate only feeds gates of a
   higher level, so each gate is evaluated at most once per drain, after
   all of its changed fanins. *)
let propagate e =
  let cc = e.m.cc in
  let l = ref e.lo_level in
  while !l <= e.hi_level do
    let base = cc.Compiled.level_off.(!l) in
    for j = 0 to e.level_cnt.(!l) - 1 do
      let s = e.queue.(base + j) in
      clear_flag e s f_queued;
      let fl = flag e s in
      let k = s - cc.Compiled.n_level0 in
      let g = Compiled.eval_gate cc e.good k in
      if fl land f_cone = 0 then write e s g g
      else begin
        write e s g (eval_fault e fl s k);
        update_frontier e fl s k
      end
    done;
    e.level_cnt.(!l) <- 0;
    incr l
  done;
  e.lo_level <- max_int;
  e.hi_level <- -1

let imply e =
  e.implications <- e.implications + 1;
  List.iter
    (fun s ->
      let a = get e.assigned s in
      write e s a (if flag e s land f_stem <> 0 then get e.fault s else a))
    e.dirty;
  e.dirty <- [];
  propagate e

let assign e s code =
  Compiled.set e.assigned s code;
  e.dirty <- s :: e.dirty

let make_engine ?(impossible = fun _ _ -> false) m ~faults =
  let cc = m.cc in
  let c = cc.Compiled.circuit and perm = cc.Compiled.perm in
  let n = cc.Compiled.n_slots in
  (* A later fault on the same site overrides an earlier one. *)
  let stems = ref [] and branches = ref [] in
  List.iter
    (fun (f : Fault.t) ->
      let stuck = V3b.of_v3 (V3.of_bool f.Fault.stuck) in
      match f.Fault.site with
      | Fault.Stem net ->
        let s = perm.(net) in
        stems := (s, stuck) :: List.remove_assoc s !stems
      | Fault.Branch { node; pin } ->
        let s = perm.(node) in
        branches :=
          (s, pin, stuck)
          :: List.filter (fun (n, p, _) -> n <> s || p <> pin) !branches)
    faults;
  let sites =
    List.rev_map
      (fun (f : Fault.t) ->
        (perm.(Fault.site_net c f), V3b.of_v3 (V3.of_bool f.Fault.stuck)))
      faults
  in
  let stems = !stems and branches = !branches in
  let flags = Bytes.make (n + 1) '\000' in
  let queue = Array.make (max 1 n) 0 in
  let seeds =
    Array.of_list
      (List.map fst stems @ List.map (fun (s, _, _) -> s) branches)
  in
  Compiled.cone_mark ~ffs:false cc ~mark:flags ~stack:queue ~seeds;
  let mark s bit =
    Bytes.set flags s (Char.chr (Char.code (Bytes.get flags s) lor bit))
  in
  List.iter (fun (s, _) -> mark s f_stem) stems;
  List.iter (fun (s, _, _) -> mark s f_branch) branches;
  (* Only an observation pin fed from the cone, or carrying an override
     itself, can ever see an effect. *)
  let opins =
    Array.to_list m.opins
    |> List.filter_map (fun (node, pin, src) ->
           let over = branch_code branches node pin in
           if over <> 0 || Char.code (Bytes.get flags src) land f_cone <> 0
           then Some (src, over)
           else None)
  in
  let e =
    {
      m;
      good = Bytes.copy m.settled;
      fault = Bytes.copy m.settled;
      assigned = Bytes.make n (Char.chr V3b.x);
      flags;
      stems;
      branches;
      branch_src =
        List.map
          (fun (s, pin, code) ->
            (perm.((Circuit.fanins c cc.Compiled.net_of.(s)).(pin)), code))
          branches;
      opins = Array.of_list opins;
      sites;
      impossible;
      net_effects = 0;
      obs_effects = 0;
      dirty = [];
      queue;
      level_cnt = Array.make (cc.Compiled.depth + 1) 0;
      lo_level = max_int;
      hi_level = -1;
      frontier = Array.make 16 0;
      n_frontier = 0;
      memo = Array.make 16 0;
      n_memo = 0;
      exhaustive = true;
      backtracks = 0;
      decisions = 0;
      implications = 0;
    }
  in
  (* Inject the faults into the settled fault-free state. *)
  List.iter (fun (s, code) -> write e s (get e.good s) code) e.stems;
  List.iter
    (fun (s, _, _) -> if s >= cc.Compiled.n_level0 then schedule e s)
    e.branches;
  propagate e;
  e

let detected e =
  e.obs_effects > 0
  || Array.exists
       (fun (src, over) ->
         let g = get e.good src in
         let f = if over = 0 then get e.fault src else over in
         V3b.detects ~good:g ~faulty:f)
       e.opins

(* A fault effect can live on a net (stem faults, propagated effects) or
   only on a consumer pin (an excited branch fault that has not yet passed
   its gate). *)
let effect_somewhere e =
  e.net_effects > 0
  || List.exists
       (fun (src, code) -> V3b.detects ~good:(get e.good src) ~faulty:code)
       e.branch_src

let has_x e s = get e.good s = V3b.x || get e.fault s = V3b.x

(* Is there a path of not-yet-determined nets from gate slot [s] to an
   observation source? Necessary condition for the fault effect ever
   reaching an observation point. The circuit is acyclic, so the answer
   per slot is memoized across the candidates of one [objective] call. *)
let rec x_path e s =
  let fl = flag e s in
  if fl land f_reach <> 0 then true
  else if fl land f_noreach <> 0 then false
  else begin
    let cc = e.m.cc in
    let r =
      Char.code (Bytes.unsafe_get e.m.observed s) land obs_source <> 0
      ||
      let hi = cc.Compiled.fanout_off.(s + 1) in
      let rec any i =
        i < hi
        &&
        let c = Array.unsafe_get cc.Compiled.fanout i in
        (c >= cc.Compiled.n_level0 && has_x e c && x_path e c) || any (i + 1)
      in
      any cc.Compiled.fanout_off.(s)
    in
    set_flag e s (if r then f_reach else f_noreach);
    e.memo <- push_grow e.memo e.n_memo s;
    e.n_memo <- e.n_memo + 1;
    r
  end

let clear_memo e =
  for j = 0 to e.n_memo - 1 do
    clear_flag e e.memo.(j) (f_reach lor f_noreach)
  done;
  e.n_memo <- 0

let cc_of e s v =
  if v = V3b.zero then e.m.cc0.(s)
  else if v = V3b.one then e.m.cc1.(s)
  else min e.m.cc0.(s) e.m.cc1.(s)

let ruled_out e s v = e.impossible e.m.cc.Compiled.net_of.(s) (V3b.to_v3 v)

(* The cheaper binary value of slot [s]. *)
let cheap e s = if e.m.cc0.(s) <= e.m.cc1.(s) then V3b.zero else V3b.one

(* Objective for propagating through frontier gate [s]: one still-unknown
   side input set to its non-controlling value (for xor-family, the cheaper
   binary value). Picks the hardest candidate first so impossible
   propagations fail early; ties go to the lowest pin. *)
let propagation_objective e s =
  let cc = e.m.cc in
  let k = s - cc.Compiled.n_level0 in
  let noncontrolling =
    match cc.Compiled.gate_op.(k) lsr 1 with
    | 0 -> V3b.one
    | 1 -> V3b.zero
    | _ -> V3b.x
  in
  let best = ref (-1) and best_v = ref 0 and best_cost = ref 0 in
  for i = cc.Compiled.fanin_off.(k) to cc.Compiled.fanin_off.(k + 1) - 1 do
    let f = cc.Compiled.fanin.(i) in
    if get e.good f = V3b.x then begin
      let v =
        if noncontrolling <> V3b.x then noncontrolling
        else
          let c = cheap e f in
          if ruled_out e f c then V3b.bnot c else c
      in
      let cost = cc_of e f v in
      if
        cost < Scoap.infinite
        && (not (ruled_out e f v))
        && (!best < 0 || !best_cost < cost)
      then begin
        best := f;
        best_v := v;
        best_cost := cost
      end
    end
  done;
  if !best < 0 then None else Some (!best, !best_v)

(* Objective order of the D-frontier: ascending SCOAP observability, ties
   in descending net id, packed into one int key per gate so that picking
   the next candidate is an int min-heap pop. *)
let frontier_key e s =
  let m = e.m in
  (m.obs.(s) lsl m.key_bits)
  lor (m.cc.Compiled.n_slots - 1 - m.cc.Compiled.net_of.(s))

let slot_of_key e key =
  let m = e.m in
  let mask = (1 lsl m.key_bits) - 1 in
  m.cc.Compiled.perm.(m.cc.Compiled.n_slots - 1 - (key land mask))

let rec sift_down (h : int array) size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let c = if l + 1 < size && h.(l + 1) < h.(l) then l + 1 else l in
    if h.(c) < h.(i) then begin
      let t = h.(i) in
      h.(i) <- h.(c);
      h.(c) <- t;
      sift_down h size c
    end
  end

(* The live D-frontier as a min-heap of [frontier_key]s; drops the stale
   entries of the frontier buffer on the way. *)
let frontier_heap e =
  let n = ref 0 in
  for j = 0 to e.n_frontier - 1 do
    let s = e.frontier.(j) in
    if flag e s land f_frontier <> 0 then begin
      e.frontier.(!n) <- s;
      incr n
    end
    else clear_flag e s f_listed
  done;
  e.n_frontier <- !n;
  let heap = Array.init !n (fun j -> frontier_key e e.frontier.(j)) in
  for i = (!n / 2) - 1 downto 0 do
    sift_down heap !n i
  done;
  heap

let objective e =
  if not (effect_somewhere e) then
    (* Fault not excited anywhere: drive some site to the opposite value. *)
    List.find_map
      (fun (s, stuck) ->
        let v = V3b.bnot stuck in
        if
          get e.good s = V3b.x
          && cc_of e s v < Scoap.infinite
          && not (ruled_out e s v)
        then Some (s, v)
        else None)
      e.sites
  else begin
    let heap = frontier_heap e in
    let size = ref (Array.length heap) in
    let reachable = ref false in
    let rec first_objective () =
      if !size = 0 then begin
        if !reachable then e.exhaustive <- false;
        None
      end
      else begin
        let s = slot_of_key e heap.(0) in
        decr size;
        heap.(0) <- heap.(!size);
        sift_down heap !size 0;
        if x_path e s then begin
          reachable := true;
          match propagation_objective e s with
          | Some o -> Some o
          | None -> first_objective ()
        end
        else first_objective ()
      end
    in
    let o = first_objective () in
    clear_memo e;
    o
  end

(* Walk an objective back to a free input along still-unknown nets, guided
   by controllability. Only pins whose needed value has finite cost are
   considered, which keeps the walk inside justifiable logic. *)
let rec backtrace e s v =
  let cc = e.m.cc in
  if Bytes.unsafe_get e.m.free s = '\001' then Some (s, v)
  else if s < cc.Compiled.n_level0 then None
  else begin
    let k = s - cc.Compiled.n_level0 in
    let op = cc.Compiled.gate_op.(k) in
    let o = cc.Compiled.fanin_off.(k) in
    let o_hi = cc.Compiled.fanin_off.(k + 1) in
    let fanin = cc.Compiled.fanin in
    let inverting = op land 1 = 1 in
    match op lsr 1 with
    | 3 -> backtrace e fanin.(o) (if inverting then V3b.bnot v else v)
    | (0 | 1) as base ->
      (* AND-family: controlling 0; OR-family: controlling 1 *)
      let ctrl = if base = 0 then V3b.zero else V3b.one in
      let base_v = if inverting then V3b.bnot v else v in
      let single = base_v = ctrl in
      let needed = if single then ctrl else V3b.bnot ctrl in
      (* the cheapest candidate when one input suffices, else the
         costliest; ties go to the lowest pin *)
      let best = ref (-1) and best_cost = ref 0 in
      for i = o to o_hi - 1 do
        let f = fanin.(i) in
        if get e.good f = V3b.x then begin
          let cost = cc_of e f needed in
          if
            cost < Scoap.infinite
            && (not (ruled_out e f needed))
            && (!best < 0
               || if single then cost < !best_cost else cost > !best_cost)
          then begin
            best := f;
            best_cost := cost
          end
        end
      done;
      if !best < 0 then None else backtrace e !best needed
    | _ ->
      let n_x = ref 0 and first = ref (-1) and parity = ref V3b.zero in
      for i = o to o_hi - 1 do
        let f = fanin.(i) in
        let g = get e.good f in
        if g = V3b.x then begin
          incr n_x;
          if !first < 0 && min e.m.cc0.(f) e.m.cc1.(f) < Scoap.infinite then
            first := f
        end
        else parity := V3b.bxor !parity g
      done;
      if !first < 0 then None
      else begin
        let f = !first in
        let needed =
          if !n_x = 1 then
            V3b.bxor (if inverting then V3b.bnot v else v) !parity
          else cheap e f
        in
        if cc_of e f needed >= Scoap.infinite then None
        else if ruled_out e f needed then None
        else backtrace e f needed
      end
  end

type decision = { pi : int; mutable flipped : bool }

let extract_test e =
  let view = e.m.view and perm = e.m.cc.Compiled.perm in
  let acc = ref [] in
  for i = Array.length view.View.free - 1 downto 0 do
    if view.View.free.(i) then begin
      let a = get e.assigned perm.(i) in
      if a <> V3b.x then acc := (i, V3b.to_v3 a) :: !acc
    end
  done;
  !acc

let run ?(backtrack_limit = 1000) ?should_abort ?scoap ?impossible
    ?model:shared view ~faults =
  let m =
    match shared with
    | Some m ->
      if m.view != view then
        invalid_arg "Podem.run: model built for another view";
      m
    | None -> model ?scoap view
  in
  let e = make_engine ?impossible m ~faults in
  let stack = ref [] in
  let rec step () =
    imply e;
    if detected e then Test (extract_test e)
    else
      match objective e with
      | Some (s, v) -> (
        match backtrace e s v with
        | Some (pi, pv) ->
          assign e pi pv;
          e.decisions <- e.decisions + 1;
          stack := { pi; flipped = false } :: !stack;
          step ()
        | None ->
          (* A backtrace dead-end only shows that this particular objective
             cannot be justified, not that the subtree is test-free:
             abandoning it costs completeness. *)
          e.exhaustive <- false;
          backtrack ())
      | None -> backtrack ()
  and backtrack () =
    if e.backtracks >= backtrack_limit then Aborted
    else if
      (match should_abort with Some f -> f () | None -> false)
    then Aborted
    else
      match !stack with
      | [] -> if e.exhaustive then Untestable else Aborted
      | d :: rest ->
        if d.flipped then begin
          assign e d.pi V3b.x;
          stack := rest;
          backtrack ()
        end
        else begin
          d.flipped <- true;
          e.backtracks <- e.backtracks + 1;
          assign e d.pi (V3b.bnot (get e.assigned d.pi));
          step ()
        end
  in
  let result =
    (* every excitation literal statically impossible: untestable with no
       search at all *)
    if
      e.sites <> []
      && List.for_all (fun (s, stuck) -> ruled_out e s (V3b.bnot stuck)) e.sites
    then Untestable
    else step ()
  in
  ( result,
    {
      backtracks = e.backtracks;
      decisions = e.decisions;
      implications = e.implications;
    } )
