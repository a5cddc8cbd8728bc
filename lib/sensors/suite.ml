open Avis_geo
open Avis_physics

type complement = {
  accelerometers : int;
  gyroscopes : int;
  compasses : int;
  gps_receivers : int;
  barometers : int;
  batteries : int;
}

let iris_complement =
  {
    accelerometers = 2;
    gyroscopes = 2;
    compasses = 2;
    gps_receivers = 2;
    barometers = 2;
    batteries = 1;
  }

let instances_of_complement c =
  let ids kind n = List.init n (fun index -> { Sensor.kind; index }) in
  List.concat
    [
      ids Sensor.Accelerometer c.accelerometers;
      ids Sensor.Gyroscope c.gyroscopes;
      ids Sensor.Compass c.compasses;
      ids Sensor.Gps c.gps_receivers;
      ids Sensor.Barometer c.barometers;
      ids Sensor.Battery c.batteries;
    ]

(* Noise channels per instance: three spatial channels for vector sensors,
   dedicated channels for GPS's anisotropic errors. *)
type instance_state = {
  id : Sensor.id;
  ch1 : Noise.channel;
  ch2 : Noise.channel;
  ch3 : Noise.channel;
  ch_aux : Noise.channel;
}

type t = {
  complement : complement;
  states : (Sensor.id * instance_state) list;
  charge : float array; (* single cell: state of charge, 0..1 — flat so the
                           per-tick store stays unboxed *)
  full_voltage : float;
  empty_voltage : float;
  capacity_j : float;
}

let spec_for (id : Sensor.id) =
  match id.Sensor.kind with
  | Sensor.Accelerometer -> (Noise.accel, Noise.accel)
  | Sensor.Gyroscope -> (Noise.gyro, Noise.gyro)
  | Sensor.Gps -> (Noise.gps_horizontal, Noise.gps_vertical)
  | Sensor.Compass -> (Noise.compass, Noise.compass)
  | Sensor.Barometer -> (Noise.baro, Noise.baro)
  | Sensor.Battery -> (Noise.battery_voltage, Noise.battery_voltage)

let create ?(complement = iris_complement) ~rng () =
  let make_state id =
    let spec, spec_v = spec_for id in
    let aux_spec =
      match id.Sensor.kind with
      | Sensor.Gps -> Noise.gps_velocity
      | _ -> spec
    in
    ( id,
      {
        id;
        ch1 = Noise.channel rng spec;
        ch2 = Noise.channel rng spec;
        ch3 = Noise.channel rng spec_v;
        ch_aux = Noise.channel rng aux_spec;
      } )
  in
  {
    complement;
    states = List.map make_state (instances_of_complement complement);
    charge = [| 1.0 |];
    full_voltage = 12.6;
    empty_voltage = 10.2;
    capacity_j = 180_000.0;
  }

let encode_instance b (id, s) =
  Sensor.encode_id b id;
  Noise.encode_channel b s.ch1;
  Noise.encode_channel b s.ch2;
  Noise.encode_channel b s.ch3;
  Noise.encode_channel b s.ch_aux

let decode_instance r =
  let id = Sensor.decode_id r in
  let ch1 = Noise.decode_channel r in
  let ch2 = Noise.decode_channel r in
  let ch3 = Noise.decode_channel r in
  let ch_aux = Noise.decode_channel r in
  (id, { id; ch1; ch2; ch3; ch_aux })

let encode b (s : t) =
  let open Avis_util.Codec in
  w_version b 1;
  w_int b s.complement.accelerometers;
  w_int b s.complement.gyroscopes;
  w_int b s.complement.compasses;
  w_int b s.complement.gps_receivers;
  w_int b s.complement.barometers;
  w_int b s.complement.batteries;
  w_list b encode_instance s.states;
  w_f64 b s.charge.(0);
  w_f64 b s.full_voltage;
  w_f64 b s.empty_voltage;
  w_f64 b s.capacity_j

let decode r : t =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:1 in
  let accelerometers = r_int r in
  let gyroscopes = r_int r in
  let compasses = r_int r in
  let gps_receivers = r_int r in
  let barometers = r_int r in
  let batteries = r_int r in
  let states = r_list r decode_instance in
  let charge = [| r_f64 r |] in
  let full_voltage = r_f64 r in
  let empty_voltage = r_f64 r in
  let capacity_j = r_f64 r in
  {
    complement =
      {
        accelerometers;
        gyroscopes;
        compasses;
        gps_receivers;
        barometers;
        batteries;
      };
    states;
    charge;
    full_voltage;
    empty_voltage;
    capacity_j;
  }

let instances t = List.map fst t.states

let count t kind =
  match kind with
  | Sensor.Accelerometer -> t.complement.accelerometers
  | Sensor.Gyroscope -> t.complement.gyroscopes
  | Sensor.Compass -> t.complement.compasses
  | Sensor.Gps -> t.complement.gps_receivers
  | Sensor.Barometer -> t.complement.barometers
  | Sensor.Battery -> t.complement.batteries

let tick t world ~dt =
  (* Electrical power rises with thrust; hovering the Iris draws ~180 W.
     [Airframe.hover_throttle] spelled out from the airframe fields so the
     per-step tick allocates no boxed return. *)
  let frame = World.airframe world in
  let hover =
    frame.Airframe.mass_kg *. Airframe.gravity
    /. (float_of_int frame.Airframe.motor_count
       *. frame.Airframe.max_thrust_per_motor_n)
  in
  let thrust_fraction = Float.max 0.05 hover in
  let power_w = 180.0 *. (thrust_fraction /. hover) in
  t.charge.(0) <- Float.max 0.0 (t.charge.(0) -. (power_w *. dt /. t.capacity_j))

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
      t.empty_voltage +. ((t.full_voltage -. t.empty_voltage) *. t.charge.(0))
    in
    Sensor.Battery_state
      {
        voltage = Noise.sample s.ch1 ~dt ~truth:truth_v;
        remaining = t.charge.(0);
      }
