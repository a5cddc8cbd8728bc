(** Cascaded flight control: position → velocity → attitude → rates → motors.

    The controller consumes only the *estimated* state — never the
    simulator's truth — so a corrupted estimate produces exactly the
    physical misbehaviour the paper's bugs exhibit. The cascade is the
    standard multicopter stack: a P position loop produces a velocity
    demand, a P velocity loop produces a lean-angle/thrust demand, a P
    attitude loop produces body-rate demands, and a P rate loop produces
    torques mixed to the four motors. *)

open Avis_geo

(** What the active flight phase wants the vehicle to do this cycle. *)
type demand = {
  pos_target : Vec3.t option;
      (** Horizontal position target; [None] leaves the velocity demand at
          the feedforward only. *)
  velocity_ff : Vec3.t;  (** Horizontal velocity feedforward, m/s. *)
  climb_demand : float;  (** Desired climb rate, m/s (positive up). *)
  yaw_target : float;  (** Desired heading, radians. *)
  idle : bool;  (** True keeps motors at ground idle (pre-flight, landed). *)
  max_speed : float option;
      (** Horizontal speed limit for this phase; defaults to cruise speed.
          Landing approaches use a lower limit for stability. *)
  level_hold : bool;
      (** Hold the attitude level instead of running the velocity loop —
          the guarded behaviour when no horizontal position/velocity source
          can be trusted. *)
  open_loop_descent : bool;
      (** Descend on fixed collective slightly below hover instead of the
          closed vertical loop — the guarded response when the climb-rate
          estimate cannot support feedback. *)
}

val hold_demand : yaw:float -> pos:Vec3.t -> demand
(** Hover in place at [pos] facing [yaw]. *)

type t

val create : params:Params.t -> unit -> t
(** A controller for the Iris ({!Avis_physics.Airframe.iris}), flown with
    the parameter set [params]. *)

val step : t -> Estimator.t -> demand -> dt:float -> float array
(** Motor commands in [\[0, 1\]] for this cycle, flown with the parameter
    set given at {!create}. The returned array is a buffer reused on the
    next [step]; read or copy it before then (the simulator's motor model
    copies it immediately). *)

val reset : t -> unit
(** Clear integrators (on arming and mode changes). *)

val encode : Buffer.t -> t -> unit
(** Versioned bit-exact binary layout of the mutable controller state: the
    climb PID's integrator and history and the last motor outputs. The
    parameter set, the PID's gains and the airframe are not written, and
    derived fields are recomputed on decode. *)

val decode : params:Params.t -> Avis_util.Codec.reader -> t
(** Inverse of {!encode}, over the parameter set the controller was created
    with. Raises [Avis_util.Codec.Corrupt] on malformed input, including
    an output whose length is not the Iris's 4 motors. *)
