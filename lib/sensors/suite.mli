(** The vehicle's full sensor complement.

    Produces noisy readings from the simulated world's true state. The suite
    knows nothing about failures — fault injection happens one layer up, in
    the hinj-instrumented drivers — so a [read] here is always the "healthy
    instance" behaviour. The battery is modelled inside the suite because
    its truth (state of charge) is a function of the flight so far rather
    than of the instantaneous world state. *)

val count : Sensor.kind -> int
(** Instances of a kind on the Iris: 2 accelerometers, 2 gyroscopes,
    2 compasses, 2 GPS, 2 barometers, 1 battery monitor (a primary and one
    backup per redundant kind). *)

val instances : Sensor.id list
(** All 11 instance ids, primaries first within each kind. *)

type t

val create : rng:Avis_util.Rng.t -> t

val encode : Buffer.t -> t -> unit
(** Binary layout of the suite's run state: every noise
    channel's RNG, bias and drift, and the state of charge, bit-exact on
    round-trip. The complement, the channels' specs and the battery
    constants are constants of this module and are not written. *)

val decode : Avis_util.Codec.reader -> t
(** Inverse of {!encode}: a fresh suite that draws the same sample streams
    as the encoded one. Raises [Avis_util.Codec.Corrupt] on malformed
    input. *)

val tick : t -> dt:float -> unit
(** Advance suite-internal state (battery discharge) one simulation step. *)

val read : t -> Avis_physics.World.t -> Sensor.id -> Sensor.reading
(** Noisy reading for an instance. Raises [Invalid_argument] for an unknown
    instance. *)

val battery_remaining : t -> float
(** True state of charge in [\[0, 1\]]. *)

val drain_battery_to : t -> float -> unit
(** Force the state of charge (used by workloads that test low-battery
    behaviour). *)
