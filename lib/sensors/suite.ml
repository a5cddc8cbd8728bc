open Avis_geo
open Avis_physics

(* The Iris's complement: a primary and one backup of every redundant
   kind, and one battery monitor. *)
let count = function
  | Sensor.Battery -> 1
  | Sensor.Accelerometer | Sensor.Gyroscope | Sensor.Gps | Sensor.Compass
  | Sensor.Barometer ->
    2

(* The order the noise channels draw their seeds in. *)
let instances =
  List.concat_map
    (fun kind -> List.init (count kind) (fun index -> { Sensor.kind; index }))
    Sensor.[ Accelerometer; Gyroscope; Compass; Gps; Barometer; Battery ]

(* Noise channels per instance: three spatial channels for vector sensors,
   dedicated channels for GPS's anisotropic errors. *)
type instance_state = {
  ch1 : Noise.channel;
  ch2 : Noise.channel;
  ch3 : Noise.channel;
  ch_aux : Noise.channel;
}

type t = {
  states : (Sensor.id * instance_state) list;  (* in [instances] order *)
  charge : float array; (* single cell: state of charge, 0..1 — flat so the
                           per-tick store stays unboxed *)
}

let full_voltage = 12.6
let empty_voltage = 10.2
let capacity_j = 180_000.0

(* The specs of an instance's channels: [ch1] and [ch2], [ch3], [ch_aux]. *)
let specs_for (id : Sensor.id) =
  match id.Sensor.kind with
  | Sensor.Accelerometer -> (Noise.accel, Noise.accel, Noise.accel)
  | Sensor.Gyroscope -> (Noise.gyro, Noise.gyro, Noise.gyro)
  | Sensor.Gps -> (Noise.gps_horizontal, Noise.gps_vertical, Noise.gps_velocity)
  | Sensor.Compass -> (Noise.compass, Noise.compass, Noise.compass)
  | Sensor.Barometer -> (Noise.baro, Noise.baro, Noise.baro)
  | Sensor.Battery ->
    (Noise.battery_voltage, Noise.battery_voltage, Noise.battery_voltage)

let create ~rng =
  let make_state id =
    let spec, spec_v, aux_spec = specs_for id in
    ( id,
      {
        ch1 = Noise.channel rng spec;
        ch2 = Noise.channel rng spec;
        ch3 = Noise.channel rng spec_v;
        ch_aux = Noise.channel rng aux_spec;
      } )
  in
  { states = List.map make_state instances; charge = [| 1.0 |] }

(* The channels' run state in [instances] order, then the charge: the
   complement, the ids, the specs and the battery constants are this
   module's constants and are not written. *)
let encode b (s : t) =
  let open Avis_util.Codec in
  w_version b 2;
  List.iter
    (fun (_, st) ->
      Noise.encode_channel b st.ch1;
      Noise.encode_channel b st.ch2;
      Noise.encode_channel b st.ch3;
      Noise.encode_channel b st.ch_aux)
    s.states;
  w_f64 b s.charge.(0)

let decode r : t =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:2 in
  let decode_state id =
    let spec, spec_v, aux_spec = specs_for id in
    let ch1 = Noise.decode_channel spec r in
    let ch2 = Noise.decode_channel spec r in
    let ch3 = Noise.decode_channel spec_v r in
    let ch_aux = Noise.decode_channel aux_spec r in
    (id, { ch1; ch2; ch3; ch_aux })
  in
  let states = List.map decode_state instances in
  { states; charge = [| r_f64 r |] }

(* Electrical power rises with thrust; hovering the Iris draws ~180 W. *)
let power_w =
  let hover = Airframe.hover_throttle Airframe.iris in
  let thrust_fraction = Float.max 0.05 hover in
  180.0 *. (thrust_fraction /. hover)

let tick t ~dt =
  t.charge.(0) <- Float.max 0.0 (t.charge.(0) -. (power_w *. dt /. capacity_j))

let battery_remaining t = t.charge.(0)

let drain_battery_to t level =
  t.charge.(0) <- Avis_util.Stats.clamp ~lo:0.0 ~hi:1.0 level

(* Field by field: a polymorphic compare of the ids would cost a C call
   per instance on every sensor read. *)
let rec find_state (id : Sensor.id) = function
  | [] -> invalid_arg ("Suite.read: unknown instance " ^ Sensor.id_to_string id)
  | ((sid : Sensor.id), s) :: rest ->
    if sid.kind = id.kind && sid.index = id.index then s else find_state id rest

let state_for t id = find_state id t.states

let read t world id =
  let s = state_for t id in
  let b = World.body world in
  let dt = 0.0 in
  match id.Sensor.kind with
  | Sensor.Accelerometer ->
    let f = Avis_physics.Rigid_body.specific_force_body b in
    Sensor.Accel
      (Vec3.make
         (Noise.sample s.ch1 ~dt ~truth:f.Vec3.x)
         (Noise.sample s.ch2 ~dt ~truth:f.Vec3.y)
         (Noise.sample s.ch3 ~dt ~truth:f.Vec3.z))
  | Sensor.Gyroscope ->
    let w = b.Avis_physics.Rigid_body.angular_velocity in
    Sensor.Gyro
      (Vec3.make
         (Noise.sample s.ch1 ~dt ~truth:w.Vec3.Mut.x)
         (Noise.sample s.ch2 ~dt ~truth:w.Vec3.Mut.y)
         (Noise.sample s.ch3 ~dt ~truth:w.Vec3.Mut.z))
  | Sensor.Gps ->
    let p = b.Avis_physics.Rigid_body.position in
    let v = b.Avis_physics.Rigid_body.velocity in
    Sensor.Gps_fix
      {
        position =
          Vec3.make
            (Noise.sample s.ch1 ~dt ~truth:p.Vec3.Mut.x)
            (Noise.sample s.ch2 ~dt ~truth:p.Vec3.Mut.y)
            (Noise.sample s.ch3 ~dt ~truth:p.Vec3.Mut.z);
        velocity =
          Vec3.make
            (Noise.sample s.ch_aux ~dt ~truth:v.Vec3.Mut.x)
            (Noise.sample s.ch_aux ~dt ~truth:v.Vec3.Mut.y)
            (Noise.sample s.ch_aux ~dt ~truth:v.Vec3.Mut.z);
        hdop = 0.8;
      }
  | Sensor.Compass ->
    let yaw = Quat.yaw (Avis_physics.Rigid_body.attitude_q b) in
    Sensor.Heading (Noise.sample s.ch1 ~dt ~truth:yaw)
  | Sensor.Barometer ->
    let alt = b.Avis_physics.Rigid_body.position.Vec3.Mut.z in
    Sensor.Pressure_alt (Noise.sample s.ch1 ~dt:0.004 ~truth:alt)
  | Sensor.Battery ->
    let truth_v =
      empty_voltage +. ((full_voltage -. empty_voltage) *. t.charge.(0))
    in
    Sensor.Battery_state
      {
        voltage = Noise.sample s.ch1 ~dt ~truth:truth_v;
        remaining = t.charge.(0);
      }
