open Avis_sensors

type fault = { sensor : Sensor.id; at : float }

type plan = fault list

type decision = Healthy | Failed

type transition = { time : float; from_mode : string; to_mode : string }

type t = {
  plan : plan;
  mutable mode : string option;
  mutable initial_mode : (float * string) option;
  mutable transitions : transition list; (* newest first *)
  mutable transition_count : int;  (* the length of [transitions] *)
  mutable read_count : int;
}

let create ?(plan = []) () =
  { plan; mode = None; initial_mode = None; transitions = [];
    transition_count = 0; read_count = 0 }

let plan t = t.plan

let encode_transition b tr =
  let open Avis_util.Codec in
  w_f64 b tr.time;
  w_string b tr.from_mode;
  w_string b tr.to_mode

let decode_transition r =
  let open Avis_util.Codec in
  let time = r_f64 r in
  let from_mode = r_string r in
  let to_mode = r_string r in
  { time; from_mode; to_mode }

(* The plan is not written: a restore passes it back, the original or a
   fork's. *)
let encode b (s : t) =
  let open Avis_util.Codec in
  w_option b w_string s.mode;
  w_option b
    (fun b (t, m) ->
      w_f64 b t;
      w_string b m)
    s.initial_mode;
  w_list b encode_transition s.transitions;
  w_int b s.read_count

let decode ~plan r : t =
  let open Avis_util.Codec in
  let mode = r_option r r_string in
  let initial_mode =
    r_option r (fun r ->
        let t = r_f64 r in
        let m = r_string r in
        (t, m))
  in
  let transitions = r_list r decode_transition in
  (* The count is not encoded: it is taken from the log once per
     restore, off the per-step path. *)
  let transition_count = List.fold_left (fun n _ -> n + 1) 0 transitions in
  let read_count = r_int r in
  { plan; mode; initial_mode; transitions; transition_count; read_count }

(* A direct scan: no closure to allocate on every sensor read. *)
let rec plan_fails ~time (id : Sensor.id) = function
  | [] -> false
  | f :: rest ->
    (f.sensor.kind = id.kind && f.sensor.index = id.index && f.at <= time)
    || plan_fails ~time id rest

let is_failed t ~time id = plan_fails ~time id t.plan

let sensor_read t ~time id =
  t.read_count <- t.read_count + 1;
  if is_failed t ~time id then Failed else Healthy

let update_mode t ~time mode =
  match t.mode with
  | None ->
    t.mode <- Some mode;
    t.initial_mode <- Some (time, mode)
  | Some current when current = mode -> ()
  | Some current ->
    t.mode <- Some mode;
    t.transitions <- { time; from_mode = current; to_mode = mode } :: t.transitions;
    t.transition_count <- t.transition_count + 1

let transitions t = List.rev t.transitions

let transition_count t = t.transition_count

let read_count t = t.read_count
