open Avis_geo

type kind = Accelerometer | Gyroscope | Gps | Compass | Barometer | Battery

let all_kinds = [ Accelerometer; Gyroscope; Gps; Compass; Barometer; Battery ]

let kind_to_string = function
  | Accelerometer -> "accelerometer"
  | Gyroscope -> "gyroscope"
  | Gps -> "gps"
  | Compass -> "compass"
  | Barometer -> "barometer"
  | Battery -> "battery"

let kind_of_string = function
  | "accelerometer" -> Some Accelerometer
  | "gyroscope" -> Some Gyroscope
  | "gps" -> Some Gps
  | "compass" -> Some Compass
  | "barometer" -> Some Barometer
  | "battery" -> Some Battery
  | _ -> None

type role = Primary | Backup

type id = { kind : kind; index : int }

let role_of id = if id.index = 0 then Primary else Backup

let id_to_string id = Printf.sprintf "%s[%d]" (kind_to_string id.kind) id.index

let compare_id a b =
  match compare a.kind b.kind with 0 -> compare a.index b.index | c -> c

type reading =
  | Accel of Vec3.t
  | Gyro of Vec3.t
  | Gps_fix of { position : Vec3.t; velocity : Vec3.t; hdop : float }
  | Heading of float
  | Pressure_alt of float
  | Battery_state of { voltage : float; remaining : float }

let reading_kind = function
  | Accel _ -> Accelerometer
  | Gyro _ -> Gyroscope
  | Gps_fix _ -> Gps
  | Heading _ -> Compass
  | Pressure_alt _ -> Barometer
  | Battery_state _ -> Battery

let kind_tag = function
  | Accelerometer -> 0
  | Gyroscope -> 1
  | Gps -> 2
  | Compass -> 3
  | Barometer -> 4
  | Battery -> 5

let encode_reading b reading =
  let open Avis_util.Codec in
  match reading with
  | Accel v ->
    w_u8 b 0;
    Vec3.encode b v
  | Gyro v ->
    w_u8 b 1;
    Vec3.encode b v
  | Gps_fix { position; velocity; hdop } ->
    w_u8 b 2;
    Vec3.encode b position;
    Vec3.encode b velocity;
    w_f64 b hdop
  | Heading h ->
    w_u8 b 3;
    w_f64 b h
  | Pressure_alt a ->
    w_u8 b 4;
    w_f64 b a
  | Battery_state { voltage; remaining } ->
    w_u8 b 5;
    w_f64 b voltage;
    w_f64 b remaining

let decode_reading r =
  let open Avis_util.Codec in
  match r_u8 r with
  | 0 -> Accel (Vec3.decode r)
  | 1 -> Gyro (Vec3.decode r)
  | 2 ->
    let position = Vec3.decode r in
    let velocity = Vec3.decode r in
    let hdop = r_f64 r in
    Gps_fix { position; velocity; hdop }
  | 3 -> Heading (r_f64 r)
  | 4 -> Pressure_alt (r_f64 r)
  | 5 ->
    let voltage = r_f64 r in
    let remaining = r_f64 r in
    Battery_state { voltage; remaining }
  | t -> corrupt "bad reading tag %d" t
