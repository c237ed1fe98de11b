(* Deterministic, seeded fault injection at named hook points.

   Injection is driven by an explicit plan: a list of (site, sequence
   number, action) triples. Every hook point belongs to one of a small
   fixed set of sites; each site keeps a private atomic hit counter, and
   a hook fires the planned action exactly when its site's counter
   reaches the planned sequence number. Because sites tick at
   deterministic program points (step-3 planning calls, engine entry
   points and checkpoint I/O, all on the main domain), the same plan
   against the same workload injects at the same places every run.

   The whole harness hides behind a single [state option Atomic.t]:
   when no plan is installed, a hook is one atomic load and a compare —
   cheap enough to leave compiled into production paths. *)

type site = Step3_plan | Engine | Ckpt_save | Ckpt_load
type action = Raise | Delay of float | Cancel
type injection = { site : site; at : int; action : action }
type plan = injection list

exception Injected of string

let n_sites = 4
let site_index = function
  | Step3_plan -> 0
  | Engine -> 1
  | Ckpt_save -> 2
  | Ckpt_load -> 3

let site_name = function
  | Step3_plan -> "step3-plan"
  | Engine -> "engine"
  | Ckpt_save -> "ckpt-save"
  | Ckpt_load -> "ckpt-load"

let action_name = function
  | Raise -> "raise"
  | Delay d -> Printf.sprintf "delay:%g" d
  | Cancel -> "cancel"

(* Delays exist to shake out timing-dependent paths (deadline checks,
   heartbeats), not to slow test suites down; cap them hard. *)
let max_delay = 0.002

type state = {
  (* (site index, sequence number) -> action *)
  tbl : (int * int, action) Hashtbl.t;
  counters : int Atomic.t array;
}

let state : state option Atomic.t = Atomic.make None

let install plan =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun { site; at; action } ->
      Hashtbl.replace tbl (site_index site, at) action)
    plan;
  Atomic.set state
    (Some { tbl; counters = Array.init n_sites (fun _ -> Atomic.make 0) })

let clear () = Atomic.set state None
let active () = Atomic.get state <> None

let point site =
  match Atomic.get state with
  | None -> `Ok
  | Some st ->
    let k = site_index site in
    let at = Atomic.fetch_and_add st.counters.(k) 1 in
    (match Hashtbl.find_opt st.tbl (k, at) with
     | None -> `Ok
     | Some Raise ->
       raise (Injected (Printf.sprintf "%s#%d" (site_name site) at))
     | Some (Delay d) ->
       Unix.sleepf (Float.min (Float.max 0.0 d) max_delay);
       `Ok
     | Some Cancel -> `Cancel)

let is_injected = function Injected _ -> true | _ -> false

(* Counter snapshots ride inside flow checkpoints so a killed-and-resumed
   run replays the remainder of the plan from the same sequence numbers
   as the uninterrupted run would have. *)
let snapshot () =
  match Atomic.get state with
  | None -> [||]
  | Some st -> Array.map Atomic.get st.counters

let restore counters =
  match Atomic.get state with
  | None -> ()
  | Some st ->
    Array.iteri
      (fun i v -> if i < n_sites then Atomic.set st.counters.(i) v)
      counters

(* --- seeded plan generation -------------------------------------------- *)

(* splitmix64, inlined so the exec layer needs no dependency on the
   generator library. Deterministic across platforms for a given seed. *)
let splitmix st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float st =
  (* 53 high bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (splitmix st) 11)
  *. (1.0 /. 9007199254740992.0)

let plan_of_seed ?(p = 0.02) ?(span = 200) seed =
  let st = ref (Int64.of_int seed) in
  let sites = [| Step3_plan; Engine; Ckpt_save; Ckpt_load |] in
  let plan = ref [] in
  for at = 0 to span - 1 do
    Array.iter
      (fun site ->
        if unit_float st < p then begin
          let u = unit_float st in
          let action =
            if u < 0.6 then Raise
            else if u < 0.85 then Delay (unit_float st *. max_delay)
            else Cancel
          in
          plan := { site; at; action } :: !plan
        end)
      sites
  done;
  List.rev !plan

let pp_plan plan =
  String.concat ", "
    (List.map
       (fun { site; at; action } ->
         Printf.sprintf "%s#%d=%s" (site_name site) at (action_name action))
       plan)
