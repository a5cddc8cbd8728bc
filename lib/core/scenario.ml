open Avis_sensors

type sensor_fault = Avis_hinj.Hinj.fault = { sensor : Sensor.id; at : float }

type fault =
  | Sensor_fault of sensor_fault
  | Link_loss of { at : float; duration : float }

type t = fault list

let empty = []

let sensor_fault sensor at = Sensor_fault { sensor; at }

let link_loss ~at ~duration = Link_loss { at; duration }

let fault_time = function Sensor_fault f -> f.at | Link_loss l -> l.at

let bucket at = int_of_float (Float.round (at *. 1000.0))

let compare_fault a b =
  match compare (bucket (fault_time a)) (bucket (fault_time b)) with
  | 0 -> (
    (* Same time bucket: sensor faults sort before link outages. *)
    match (a, b) with
    | Sensor_fault fa, Sensor_fault fb -> Sensor.compare_id fa.sensor fb.sensor
    | Sensor_fault _, Link_loss _ -> -1
    | Link_loss _, Sensor_fault _ -> 1
    | Link_loss la, Link_loss lb ->
      compare (bucket la.duration) (bucket lb.duration))
  | c -> c

let of_faults faults =
  let sorted = List.sort_uniq compare_fault faults in
  sorted

let union a b = of_faults (a @ b)

let to_plan t =
  List.filter_map (function Sensor_fault f -> Some f | Link_loss _ -> None) t

let link_outages t =
  List.filter_map
    (function
      | Link_loss { at; duration } -> Some (at, duration) | Sensor_fault _ -> None)
    t

let cardinality = List.length

let fault_key = function
  | Sensor_fault f ->
    Printf.sprintf "%s@%d" (Sensor.id_to_string f.sensor) (bucket f.at)
  | Link_loss { at; duration } ->
    Printf.sprintf "link@%d+%d" (bucket at) (bucket duration)

let key t = String.concat ";" (List.map fault_key t)

let role_key t =
  String.concat ";"
    (List.map
       (function
         | Sensor_fault f ->
           let role =
             match Sensor.role_of f.sensor with
             | Sensor.Primary -> "P"
             | Sensor.Backup -> "B"
           in
           Printf.sprintf "%s/%s@%d"
             (Sensor.kind_to_string f.sensor.Sensor.kind)
             role (bucket f.at)
         | Link_loss _ as f ->
           (* There is only one datalink: no instance symmetry to fold. *)
           fault_key f)
       t)

let subsumes ~smaller ~larger =
  List.for_all
    (fun f -> List.exists (fun g -> compare_fault f g = 0) larger)
    smaller

let sensors_failed t =
  List.filter_map
    (function Sensor_fault f -> Some f.sensor | Link_loss _ -> None)
    t

let has_link_loss t =
  List.exists (function Link_loss _ -> true | Sensor_fault _ -> false) t

let first_injection_time = function
  | [] -> None
  | f :: rest ->
    Some
      (List.fold_left
         (fun acc g -> Float.min acc (fault_time g))
         (fault_time f) rest)

let pp_fault ppf = function
  | Sensor_fault f ->
    Format.fprintf ppf "%s@%.2fs" (Sensor.id_to_string f.sensor) f.at
  | Link_loss { at; duration } ->
    Format.fprintf ppf "link-loss@%.2fs(+%.1fs)" at duration

let pp ppf t =
  if t = [] then Format.fprintf ppf "(no faults)"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      pp_fault ppf t

let to_string t = Format.asprintf "%a" pp t
