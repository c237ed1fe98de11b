open Fst_logic

type test = {
  frames : int;
  init_state : (int * V3.t) list;
  pi_frames : (int * V3.t) list array;
}

type result = Seq_test of test | Seq_aborted
type stats = { runs : int; backtracks : int }

(* The unrolled model and its PODEM model, built on first use per frame
   count and then shared by every fault run on the same bounds. *)
type models = {
  build : int -> Unroll.t;
  keep : bool;
  mutable built : (int * (Unroll.t * Podem.model)) list;
}

let models ?(keep = true) c ~constraints ~controllable_ff ~observable_ff =
  {
    build =
      (fun frames ->
        Unroll.build c ~frames ~constraints ~controllable_ff ~observable_ff);
    keep;
    built = [];
  }

let model_at ms frames =
  match List.assoc_opt frames ms.built with
  | Some um -> um
  | None ->
    let u = ms.build frames in
    let um = (u, Podem.model u.Unroll.view) in
    if ms.keep then ms.built <- (frames, um) :: ms.built;
    um

let test_of_assignment u frames assignment =
  let init_state = ref [] in
  let pi_frames = Array.make frames [] in
  List.iter
    (fun (net, v) ->
      match Unroll.origin u net with
      | Unroll.Pi { frame; net } -> pi_frames.(frame) <- (net, v) :: pi_frames.(frame)
      | Unroll.State ff -> init_state := (ff, v) :: !init_state)
    assignment;
  { frames; init_state = !init_state; pi_frames }

let run_on ?should_abort ms ~fault ~frames_list ~backtrack_limit =
  let runs = ref 0 and backtracks = ref 0 in
  let aborting () =
    match should_abort with None -> false | Some f -> f ()
  in
  let rec try_frames = function
    | [] -> (Seq_aborted, { runs = !runs; backtracks = !backtracks })
    | _ :: _ when aborting () ->
      (Seq_aborted, { runs = !runs; backtracks = !backtracks })
    | frames :: rest -> (
      let u, model = model_at ms frames in
      let faults = Unroll.map_fault u fault in
      incr runs;
      match
        Podem.run ~backtrack_limit ?should_abort ~model u.Unroll.view ~faults
      with
      | Podem.Test assignment, st ->
        backtracks := !backtracks + st.Podem.backtracks;
        ( Seq_test (test_of_assignment u frames assignment),
          { runs = !runs; backtracks = !backtracks } )
      | (Podem.Untestable | Podem.Aborted), st ->
        backtracks := !backtracks + st.Podem.backtracks;
        try_frames rest)
  in
  try_frames frames_list

let run ?should_abort c ~constraints ~controllable_ff ~observable_ff ~fault
    ~frames_list ~backtrack_limit =
  run_on ?should_abort
    (models ~keep:false c ~constraints ~controllable_ff ~observable_ff)
    ~fault ~frames_list ~backtrack_limit
