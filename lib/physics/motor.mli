(** Rotor model with first-order spin-up lag.

    The flight stack commands a throttle fraction per motor; actual thrust
    follows the command with a small time constant, which is what makes
    abrupt attitude-controller output physically bounded. Motors are laid
    out in an X configuration; [mix_layout] gives each motor's position and
    spin direction for torque computation.

    [step] refreshes a cached per-motor thrust table and its sum, so
    [total_thrust] and [body_torque_into] are allocation-free; the original
    allocating [body_torque] is kept for [World.step_reference], the
    identity tests' oracle. *)

open Avis_geo

type t

val create : Airframe.t -> t
(** All motors at rest. *)

val command : t -> float array -> unit
(** Set commanded throttle per motor, clamped to [\[0, 1\]]. The array length
    must equal the airframe's motor count. *)

val step : t -> float -> unit
(** Advance rotor dynamics by [dt] seconds and refresh the thrust cache. *)

val thrusts : t -> float array
(** Current thrust per motor, newtons (fresh array per call). *)

val total_thrust : t -> float
(** Cached sum of the per-motor thrusts; O(1), no allocation. *)

val total_thrust_cell : t -> float array
(** The single-cell buffer behind {!total_thrust}, as a read-only view:
    lets the step kernel read the total without a boxed float crossing the
    module boundary. Do not write to it. *)

val body_torque : t -> rate:Vec3.t -> airspeed_body:Vec3.t -> Vec3.t
(** Net torque in the body frame from differential thrust, reaction
    torques, and blade flapping (a moment opposing roll/pitch [rate] plus a
    flap-back moment against the perpendicular [airspeed_body]) — the
    passive stability real rotors provide. Reference implementation;
    allocates intermediates. *)

val body_torque_into :
  t -> rate:Vec3.Mut.vec -> airspeed_body:Vec3.Mut.vec -> dst:Vec3.Mut.vec -> unit
(** [body_torque], bit-identically, into preallocated scratch. *)

val mix_layout : Airframe.t -> (Vec3.t * float) array
(** Per-motor [(position in body frame, spin direction ±1)]. *)

val float_count : t -> int
(** Float slots this motor bank needs in a flat snapshot blob. *)

val blit_to_floats : t -> float array -> pos:int -> unit
val restore_floats : t -> float array -> pos:int -> unit
(** Write/read commanded and actual fractions; [restore_floats] rebuilds
    the derived thrust cache. *)
