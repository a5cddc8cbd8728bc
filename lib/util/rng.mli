(** Deterministic pseudo-random number generation.

    Every stochastic component in the reproduction (sensor noise, scheduler
    jitter, random fault injection) draws from an explicit [Rng.t] so that
    simulations are reproducible from a seed. The generator is splitmix64,
    which is small, fast and has well-understood statistical quality. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Two generators built from the same
    seed produce identical streams. *)

val to_bits : t -> int64
(** The raw splitmix64 state, for checkpoint encoding. *)

val of_bits : int64 -> t
(** Rebuild a generator from {!to_bits} output; the pair round-trips the
    exact stream position. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from [t],
    advancing [t]. Use to give each subsystem its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val gaussian_scaled : t -> mean:float -> stddev:float -> float
(** Normal deviate with the given mean and standard deviation. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element. Raises [Invalid_argument] on an empty array. *)
