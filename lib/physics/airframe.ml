open Avis_geo

type t = {
  name : string;
  mass_kg : float;
  arm_length_m : float;
  inertia : Vec3.t;
  motor_count : int;
  max_thrust_per_motor_n : float;
  motor_time_constant_s : float;
  torque_per_thrust : float;
  flap_rate_damping : float;
  flap_back : float;
  linear_drag : float;
  angular_drag : float;
}

let gravity = 9.80665

let iris =
  {
    name = "3DR Iris";
    mass_kg = 1.5;
    arm_length_m = 0.25;
    inertia = Vec3.make 0.029125 0.029125 0.055225;
    motor_count = 4;
    max_thrust_per_motor_n = 8.0;
    motor_time_constant_s = 0.05;
    torque_per_thrust = 0.016;
    flap_rate_damping = 0.12;
    flap_back = 0.02;
    linear_drag = 0.35;
    angular_drag = 0.02;
  }

(* The full record is serialised (not just the name) so snapshots of
   hand-constructed airframes survive too. *)
let encode b t =
  let open Avis_util.Codec in
  w_version b 1;
  w_string b t.name;
  w_f64 b t.mass_kg;
  w_f64 b t.arm_length_m;
  Vec3.encode b t.inertia;
  w_int b t.motor_count;
  w_f64 b t.max_thrust_per_motor_n;
  w_f64 b t.motor_time_constant_s;
  w_f64 b t.torque_per_thrust;
  w_f64 b t.flap_rate_damping;
  w_f64 b t.flap_back;
  w_f64 b t.linear_drag;
  w_f64 b t.angular_drag

let decode r =
  let open Avis_util.Codec in
  let (_ : int) = r_version r ~expect:1 in
  let name = r_string r in
  let mass_kg = r_f64 r in
  let arm_length_m = r_f64 r in
  let inertia = Vec3.decode r in
  let motor_count = r_int r in
  (* [Motor.mix_layout]'s precondition: an even count of at least 4. *)
  if motor_count < 4 || motor_count > 64 || motor_count mod 2 <> 0 then
    corrupt "bad motor count %d" motor_count;
  let max_thrust_per_motor_n = r_f64 r in
  let motor_time_constant_s = r_f64 r in
  let torque_per_thrust = r_f64 r in
  let flap_rate_damping = r_f64 r in
  let flap_back = r_f64 r in
  let linear_drag = r_f64 r in
  let angular_drag = r_f64 r in
  {
    name;
    mass_kg;
    arm_length_m;
    inertia;
    motor_count;
    max_thrust_per_motor_n;
    motor_time_constant_s;
    torque_per_thrust;
    flap_rate_damping;
    flap_back;
    linear_drag;
    angular_drag;
  }

let[@inline] max_total_thrust_n t =
  float_of_int t.motor_count *. t.max_thrust_per_motor_n

let[@inline] hover_throttle t = t.mass_kg *. gravity /. max_total_thrust_n t
