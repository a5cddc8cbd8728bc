(** In-memory duplex byte link between the ground-control station and the
    vehicle.

    The paper's monitor copes with "slight delays between the workload
    sending and the firmware receiving messages" introduced by the OS
    scheduler; the link reproduces that nondeterminism deterministically: an
    optional jitter source delays each chunk by a small random number of
    simulation steps.

    On top of jitter the link carries a schedule of {!outage} windows that
    silence it entirely for a span of steps. Outages are deterministic and
    consume no randomness, which is what makes them substitutable on
    {!decode}: a forked run that schedules a different outage window
    replays all surviving traffic bit-identically. *)

type endpoint = Gcs_end | Vehicle_end

type outage = { from_step : int; until_step : int }
(** Chunks sent at step [s] with [from_step <= s < until_step] are dropped.
    Judged at send time: bytes already in flight still arrive. *)

type t

val create : ?jitter:Avis_util.Rng.t -> ?outages:outage list -> unit -> t
(** [create ~jitter:rng ()] delays each sent chunk by a uniform 0 to 2
    extra steps drawn from [rng]. Without [jitter], delivery happens on the
    next step. [outages] schedules silent windows. *)

val encode : Buffer.t -> t -> unit
(** Versioned binary layout of the link's run state: the jitter RNG,
    in-flight chunks, clocks and drop counter. The outage schedule is not
    written. *)

val decode : outages:outage list -> Avis_util.Codec.reader -> t
(** Inverse of {!encode}, over the outage schedule [outages]: the encoded
    link's own, or a different one — the link half of the simulator's fork
    operation. Raises [Avis_util.Codec.Corrupt] on malformed input. *)

val send : t -> endpoint -> string -> unit
(** Queue bytes from the given endpoint towards the other side, unless an
    outage window silences the send step. *)

val step : t -> unit
(** Advance one simulation step; due chunks become receivable. *)

val receive : t -> endpoint -> string
(** Drain all bytes that have arrived at the given endpoint. *)

val dropped : t -> int
(** Chunks dropped so far by outage windows. *)
