(** The simulated physical world: ground, obstacles, geofence and wind.

    The paper's environments contain obstacles and weather effects; the
    default evaluation environment is flat, obstacle-free and calm, and that
    is the default here too ([benign]). Obstacles are axis-aligned boxes;
    the geofence is an optional horizontal circle plus an altitude ceiling,
    matching the fence semantics the second default workload exercises. *)

open Avis_geo

type obstacle = { centre : Vec3.t; half_extents : Vec3.t; label : string }

type fence = { centre_xy : Vec3.t; radius_m : float; max_alt_m : float }

type wind = {
  steady : Vec3.t;  (** Constant component, m/s. *)
  gust_stddev : float;  (** Strength of the coloured-noise gusts. *)
  gust_correlation_s : float;  (** Gust time constant. *)
}

type t

val benign : unit -> t
(** Flat ground, no obstacles, no fence, no wind. *)

val create :
  ?obstacles:obstacle list -> ?fence:fence option -> ?wind:wind option -> unit -> t

val copy : t -> t
(** An independent copy, including the current gust state. *)

val obstacles : t -> obstacle list
val fence : t -> fence option

val encode : Buffer.t -> t -> unit
(** Versioned binary layout of the whole environment: obstacles, fence,
    wind spec and the current gust state. A run configuration's key is
    written with it. *)

val encode_gust : Buffer.t -> t -> unit
(** The gust state alone, the only part of an environment a step
    changes: what a checkpoint keeps of it. *)

val decode_gust : t -> Avis_util.Codec.reader -> unit
(** Inverse of {!encode_gust}, into an environment built from the same
    spec, so it resumes the same gust process. Raises
    [Avis_util.Codec.Corrupt] on truncated input. *)

val wind_at : t -> Avis_util.Rng.t -> float -> Vec3.t
(** [wind_at t rng dt] advances the gust process by [dt] and returns the
    current wind vector. Calm environments always return zero. *)

val wind_into : t -> Avis_util.Rng.t -> float -> Vec3.Mut.vec -> unit
(** [wind_at] into preallocated scratch — the same implementation (same
    RNG draws, same floats); allocation-free, and calm environments also
    draw no randomness. *)

val ground_altitude : t -> Vec3.t -> float
(** Terrain height under a position; the default world is flat at 0. *)

val ground_altitude_xyz : t -> x:float -> y:float -> float
(** [ground_altitude] from raw components (hot path). *)

val ground_altitude_into : t -> pos:Vec3.Mut.vec -> float array -> unit
(** Write the ground level under [pos] into the single-cell destination;
    only pointers cross the call, so the step kernel stays allocation-free
    without relying on cross-module inlining. *)

val has_obstacles : t -> bool
val has_fence : t -> bool
(** Allocation-free guards so the step kernel can skip the obstacle/fence
    probes entirely in environments without them. *)

val inside_obstacle : t -> Vec3.t -> obstacle option
(** The first obstacle containing the point, if any. *)

val obstacle_at : t -> x:float -> y:float -> z:float -> obstacle option
(** [inside_obstacle] from raw components; allocates only on a hit. *)

val breaches_fence : t -> Vec3.t -> bool
(** True when a fence exists and the point lies outside it. *)

val breaches_fence_xyz : t -> x:float -> y:float -> z:float -> bool
(** [breaches_fence] from raw components, allocation-free. *)
