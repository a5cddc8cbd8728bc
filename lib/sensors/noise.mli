(** Per-kind sensor noise characteristics.

    Each instance gets a constant bias drawn at creation plus white noise per
    sample; the barometer additionally drifts slowly. The GPS's vertical
    error is deliberately several times its horizontal error — that
    asymmetry is what makes the Fig. 1 bug (GPS-guided altitude changes at
    low altitude) physically unsafe. *)

type spec = {
  white_stddev : float;
  bias_stddev : float;
  drift_rate : float;  (** Random-walk rate per second (barometer). *)
}

val accel : spec
val gyro : spec
val gps_horizontal : spec
val gps_vertical : spec
val gps_velocity : spec
val compass : spec
val baro : spec
val battery_voltage : spec

type channel
(** One noisy scalar channel: bias + drift + white noise. *)

val channel : Avis_util.Rng.t -> spec -> channel
(** Draw the channel's bias from the spec using the given generator. *)

val encode_channel : Buffer.t -> channel -> unit
(** Binary layout: RNG state, bias and drift — with the spec, everything
    needed to resume the exact sample stream. The spec is not written. *)

val decode_channel : spec -> Avis_util.Codec.reader -> channel
(** Inverse of {!encode_channel} for a channel of [spec]; raises
    [Avis_util.Codec.Corrupt] on malformed input. *)

val sample : channel -> dt:float -> truth:float -> float
(** Corrupt a true value; advances drift by [dt]. *)
