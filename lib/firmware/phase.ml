type t =
  | Preflight
  | Takeoff
  | Waypoint of int
  | Manual
  | Rtl
  | Land
  | Landed

(* Labels are recorded into the trace every sample; memoise the waypoint
   labels so steady flight stores a shared string instead of sprintf-ing a
   fresh one per sample. *)
let waypoint_labels =
  Array.init 64 (fun i -> Printf.sprintf "Waypoint %d" i)

let label = function
  | Preflight -> "Pre-Flight"
  | Takeoff -> "Takeoff"
  | Waypoint i ->
    if i >= 0 && i < Array.length waypoint_labels then waypoint_labels.(i)
    else Printf.sprintf "Waypoint %d" i
  | Manual -> "Manual"
  | Rtl -> "Return To Launch"
  | Land -> "Land"
  | Landed -> "Disarmed"

let of_label = function
  | "Pre-Flight" -> Some Preflight
  | "Takeoff" -> Some Takeoff
  | "Manual" -> Some Manual
  | "Return To Launch" -> Some Rtl
  | "Land" -> Some Land
  | "Disarmed" -> Some Landed
  | s ->
    (match String.split_on_char ' ' s with
    | [ "Waypoint"; n ] -> (
      match int_of_string_opt n with Some i -> Some (Waypoint i) | None -> None)
    | _ -> None)

let equal a b =
  match (a, b) with
  | Preflight, Preflight
  | Takeoff, Takeoff
  | Manual, Manual
  | Rtl, Rtl
  | Land, Land
  | Landed, Landed ->
    true
  | Waypoint i, Waypoint j -> i = j
  | ( (Preflight | Takeoff | Waypoint _ | Manual | Rtl | Land | Landed),
      (Preflight | Takeoff | Waypoint _ | Manual | Rtl | Land | Landed) ) ->
    false

let is_airborne = function
  | Takeoff | Waypoint _ | Manual | Rtl | Land -> true
  | Preflight | Landed -> false

type pattern =
  | Any
  | Exactly of t
  | Any_waypoint
  | One_of : pattern list -> pattern

let rec matches p phase =
  match p with
  | Any -> true
  | Exactly t -> equal t phase
  | Any_waypoint -> ( match phase with Waypoint _ -> true | _ -> false)
  | One_of ps -> matches_any ps phase

(* Not [List.exists]: the failsafe matches windows every cycle a sensor
   kind is lost, and a closure per call would allocate. *)
and matches_any ps phase =
  match ps with [] -> false | p :: rest -> matches p phase || matches_any rest phase

let to_code = function
  | Preflight -> 0
  | Takeoff -> 1
  | Manual -> 2
  | Rtl -> 5
  | Land -> 6
  | Landed -> 7
  | Waypoint i -> 100 + i

let of_code = function
  | 0 -> Some Preflight
  | 1 -> Some Takeoff
  | 2 -> Some Manual
  | 5 -> Some Rtl
  | 6 -> Some Land
  | 7 -> Some Landed
  | c when c > 100 -> Some (Waypoint (c - 100))
  | _ -> None
