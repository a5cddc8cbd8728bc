(** The complete simulated vehicle-in-environment.

    One [step] is the simulation time-step of the paper's Fig. 7: the
    firmware's actuator outputs (motor commands) go in, the new physical
    state comes out, and any contact events are recorded. The contact model
    distinguishes a gentle touchdown (the vehicle comes to rest) from a hard
    impact or an obstacle strike, which is what the invariant monitor's
    crash detector consumes.

    [step] runs against preallocated scratch and performs no minor-heap
    allocation in steady flight or steady rest (events allocate, but fire
    at most once per contact). [step_reference] is the pre-optimisation
    allocating implementation, kept as the bench baseline and the identity
    oracle — the two produce bit-identical trajectories. *)

open Avis_geo

type contact_event =
  | Touchdown of { speed : float }
      (** Ground contact below the crash threshold; the vehicle settles. *)
  | Ground_impact of { speed : float }
      (** Ground contact above the crash threshold — a crash. *)
  | Obstacle_strike of { label : string; speed : float }
  | Tipover
      (** The vehicle is on the ground with excessive tilt. *)

type t

val create :
  ?environment:Environment.t ->
  ?rng:Avis_util.Rng.t ->
  ?position:Vec3.t ->
  unit ->
  t

val encode : Buffer.t -> t -> unit
(** Versioned binary layout of what a step changes: the environment's gust
    state, the physics RNG, the latched crash event, and the numeric state
    (clock, latched flags, body, motors) by bit pattern. The environment's
    spec and the airframe are not written. *)

val decode : environment:Environment.t -> Avis_util.Codec.reader -> t
(** Inverse of {!encode}: a fresh world in [environment], a fresh copy
    built from the encoded world's spec, whose gust state it restores. It
    steps bit-identically to the encoded one. Raises
    [Avis_util.Codec.Corrupt] on malformed input, including a numeric
    state whose length disagrees with the Iris's motor count. *)

val encode_contact : Buffer.t -> contact_event -> unit
(** One contact event, its speed by bit pattern. *)

val decode_contact : Avis_util.Codec.reader -> contact_event
(** Inverse of {!encode_contact}. Raises [Avis_util.Codec.Corrupt] on an
    unknown tag or truncated input. *)

val environment : t -> Environment.t
val body : t -> Rigid_body.t

val motors : t -> Motor.t
(** The live rotor bank (read it with {!Motor.blit_to_floats}). *)

val time : t -> float
(** Simulated seconds since creation. *)

val on_ground : t -> bool

val step : t -> motor_commands:float array -> dt:float -> contact_event option
(** Advance one time-step. Returns the contact event produced during this
    step, if any. After a [Ground_impact], [Obstacle_strike] or [Tipover]
    the world latches [crashed] and further steps keep the vehicle where it
    stopped. *)

val step_reference :
  t -> motor_commands:float array -> dt:float -> contact_event option
(** The pre-optimisation allocating [step], preserved verbatim: same float
    expressions, same RNG draws, bit-identical trajectory. Kept as the
    oracle the identity tests compare [step] against. *)

val crashed : t -> bool

val crash_event : t -> contact_event option
(** The latched crash, if one occurred. *)

val fence_breached : t -> bool
(** True once the vehicle has ever left the geofence (latched). *)

val pp_contact : Format.formatter -> contact_event -> unit
