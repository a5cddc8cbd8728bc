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

let[@inline] max_total_thrust_n t =
  float_of_int t.motor_count *. t.max_thrust_per_motor_n

let[@inline] hover_throttle t = t.mass_kg *. gravity /. max_total_thrust_n t
