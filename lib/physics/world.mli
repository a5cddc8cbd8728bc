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
  ?airframe:Airframe.t ->
  ?position:Vec3.t ->
  unit ->
  t

val copy : t -> t
(** An independent deep copy: shared immutable structure, copied mutable
    state, fresh scratch. *)

type snapshot
(** A frozen copy of the whole physical state: the numeric state (body,
    motors, clock, latched flags) flattened into one float blob, plus the
    gust process and physics RNG. Immutable structure is shared with the
    live world. *)

val snapshot : t -> snapshot
val restore : snapshot -> t
(** [restore] yields a fresh world; one snapshot may be restored any number
    of times, each restore independent of the others. *)

val snapshot_bytes : snapshot -> int
(** Exact size in bytes of the snapshot's numeric payload. *)

val encode_snapshot : Buffer.t -> snapshot -> unit
(** Versioned binary layout: airframe, environment, physics RNG, latched
    crash event, and the numeric float blob by bit pattern. *)

val decode_snapshot : Avis_util.Codec.reader -> snapshot
(** Inverse of {!encode_snapshot}; raises [Avis_util.Codec.Corrupt] on
    malformed input, including a blob whose length disagrees with the
    airframe's motor count. *)

val airframe : t -> Airframe.t
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
