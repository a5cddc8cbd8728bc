(** State estimation with explicit source-selection modes.

    A complementary-filter estimator standing in for ArduPilot's EKF: it
    predicts with IMU data and corrects with GPS, barometer and compass.
    Failure handling selects *source modes* — and this is precisely where
    most of the reproduced sensor bugs live: the flawed modes
    ([Alt_gps_raw], [Alt_frozen], [Att_frozen], [Yaw_stale_compass], …) are
    the incorrect failover choices the paper's bugs made, while the guarded
    modes are the safe ones. The failsafe logic decides which mode is
    active; the estimator just executes it faithfully. *)

open Avis_geo

type alt_mode =
  | Alt_fused  (** Barometer + IMU prediction (normal). *)
  | Alt_gps_fused  (** Guarded barometer-loss fallback: smoothed GPS. *)
  | Alt_gps_raw
      (** Flawed: raw GPS altitude and its finite difference as climb rate
          (Fig. 1 / APM-16682, APM-4679). *)
  | Alt_lagged  (** Flawed: heavily lagged barometer only (APM-16021). *)
  | Alt_frozen  (** Flawed: the altitude estimate stops updating (APM-16027). *)
  | Alt_none  (** Flawed: no altitude source selected (PX4-17181). *)

type att_mode =
  | Att_normal
  | Att_frozen  (** Flawed gyro loss: attitude and rate stop updating. *)
  | Att_accel_only  (** Guarded gyro loss: level from accelerometer, rates zeroed. *)

type yaw_mode =
  | Yaw_compass
  | Yaw_gyro_only  (** Guarded compass loss: coast on the gyro. *)
  | Yaw_stale_compass
      (** Flawed: keep correcting towards the last heading ever read
          (APM-16967, APM-5428). *)
  | Yaw_flipped  (** Flawed: yaw correction sign inverted (PX4-17046). *)

type pos_mode =
  | Pos_gps
  | Pos_dead_reckon  (** Integrate the IMU only; drifts. *)

type t

val create : params:Params.t -> unit -> t

val set_alt_mode : t -> alt_mode -> unit
val set_att_mode : t -> att_mode -> unit
val set_yaw_mode : t -> yaw_mode -> unit
val set_pos_mode : t -> pos_mode -> unit

val alt_mode : t -> alt_mode
val att_mode : t -> att_mode
val yaw_mode : t -> yaw_mode
val pos_mode : t -> pos_mode

val reset_state : t -> unit
(** The "reset state estimate" flaw: zero position, velocity and level the
    attitude, mid-air (APM-16967's landing reset). *)

val update : t -> Drivers.t -> dt:float -> unit
(** One estimation step from the drivers' latest readings. *)

val position : t -> Vec3.t
val velocity : t -> Vec3.t
val attitude : t -> Quat.t
val angular_rate : t -> Vec3.t
val yaw : t -> float
(** The yaw of {!attitude}, bit-equal to [Quat.to_euler]'s, computed once
    per attitude change: every attitude write ({!update}, {!reset_state})
    invalidates the cached value, which is not encoded and starts invalid
    after {!create} and {!decode}. *)

val altitude : t -> float
val climb_rate : t -> float

val alt_valid : t -> bool
(** False in [Alt_none] mode. *)

val vertical_degraded : t -> bool
(** True when the vertical estimate has no IMU prediction behind it (the
    controllers soften the vertical loop accordingly). *)

val dead_reckon_age : t -> float
(** Seconds spent continuously in [Pos_dead_reckon]; 0 with a position
    source. The dead-reckoned velocity is trustworthy for only a few
    seconds, so the controllers fade velocity feedback out with this. *)

val heading_valid : t -> bool
(** False while the compass is unavailable in guarded mode; the PX4
    personality's takeoff gate checks this (PX4-17192). *)

val set_heading_valid : t -> bool -> unit

val encode : Buffer.t -> t -> unit
(** Bit-exact binary layout of the whole estimated state. The
    parameter set given at {!create} is not written. *)

val decode : params:Params.t -> Avis_util.Codec.reader -> t
(** Inverse of {!encode}, over the parameter set the estimator was created
    with. Raises [Avis_util.Codec.Corrupt] on malformed input. *)
