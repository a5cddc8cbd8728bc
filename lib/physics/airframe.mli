(** Physical parameters of the simulated vehicle.

    The evaluation uses the 3DR Iris quadcopter; [iris] carries parameters in
    the same regime as that airframe (1.5 kg class, ~25 cm arms, roughly
    2:1 thrust-to-weight). Every run flies it: no configuration or
    checkpoint names an airframe. *)

open Avis_geo

type t = {
  name : string;
  mass_kg : float;
  arm_length_m : float;  (** Motor distance from the centre of mass. *)
  inertia : Vec3.t;  (** Diagonal of the inertia tensor, kg·m². *)
  motor_count : int;
  max_thrust_per_motor_n : float;
  motor_time_constant_s : float;  (** First-order rotor spin-up lag. *)
  torque_per_thrust : float;  (** Yaw reaction torque per newton of thrust. *)
  flap_rate_damping : float;
      (** Blade-flapping moment opposing roll/pitch rates, N·m per (rad/s)
          at full collective thrust. *)
  flap_back : float;
      (** Flap-back moment tilting the rotor disc against translation,
          N·m per (m/s) of perpendicular airspeed at full thrust. *)
  linear_drag : float;  (** Translational drag coefficient, N per (m/s). *)
  angular_drag : float;  (** Rotational drag coefficient, N·m per (rad/s). *)
}

val iris : t
(** 3DR Iris-class quadcopter. *)

val hover_throttle : t -> float
(** The per-motor throttle fraction at which total thrust balances gravity. *)

val max_total_thrust_n : t -> float

val gravity : float
(** Standard gravity, m/s². *)
