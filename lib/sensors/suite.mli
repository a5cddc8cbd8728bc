(** The vehicle's full sensor complement.

    Produces noisy readings from the simulated world's true state. The suite
    knows nothing about failures — fault injection happens one layer up, in
    the hinj-instrumented drivers — so a [read] here is always the "healthy
    instance" behaviour. The battery is modelled inside the suite because
    its truth (state of charge) is a function of the flight so far rather
    than of the instantaneous world state. *)

type complement = {
  accelerometers : int;
  gyroscopes : int;
  compasses : int;
  gps_receivers : int;
  barometers : int;
  batteries : int;
}

val iris_complement : complement
(** 2 accelerometers, 2 gyroscopes, 2 compasses, 2 GPS, 2 barometers,
    1 battery monitor — 11 instances (primary + one backup per redundant
    kind). *)

val instances_of_complement : complement -> Sensor.id list
(** All instance ids, primaries first within each kind. *)

type t

val create : ?complement:complement -> rng:Avis_util.Rng.t -> unit -> t

val encode : Buffer.t -> t -> unit
(** Versioned binary layout of the whole suite — complement, every noise
    channel's RNG/spec/bias/drift and the battery state — bit-exact on
    round-trip. *)

val decode : Avis_util.Codec.reader -> t
(** Inverse of {!encode}: a fresh suite that draws the same sample streams
    as the encoded one. Raises [Avis_util.Codec.Corrupt] on malformed
    input. *)

val instances : t -> Sensor.id list

val count : t -> Sensor.kind -> int

val tick : t -> Avis_physics.World.t -> dt:float -> unit
(** Advance suite-internal state (battery discharge) one simulation step. *)

val read : t -> Avis_physics.World.t -> Sensor.id -> Sensor.reading
(** Noisy reading for an instance. Raises [Invalid_argument] for an unknown
    instance. *)

val battery_remaining : t -> float
(** True state of charge in [\[0, 1\]]. *)

val drain_battery_to : t -> float -> unit
(** Force the state of charge (used by workloads that test low-battery
    behaviour). *)
