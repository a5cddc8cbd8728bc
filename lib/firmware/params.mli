(** Firmware tuning parameters.

    Gains and thresholds for the cascaded controllers, sensor sampling
    periods, telemetry rates and failsafe settings. The two personalities
    share most values; the [default] set is tuned for the Iris airframe at
    the simulator's 250 Hz step. *)

type t = {
  (* vertical flight *)
  takeoff_climb_rate : float;  (** m/s commanded during takeoff. *)
  land_descent_rate : float;  (** m/s above the flare altitude. *)
  land_fast_descent_rate : float;  (** m/s used when far above ground. *)
  land_fast_descent_alt : float;  (** Altitude above which fast descent is used. *)
  land_flare_alt : float;  (** Flare below this estimated altitude. *)
  land_flare_rate : float;  (** m/s during the flare. *)
  takeoff_accept_m : float;  (** Climb is complete within this of the target. *)
  (* horizontal flight *)
  cruise_speed : float;  (** m/s along mission legs. *)
  waypoint_radius : float;  (** Acceptance radius, metres. *)
  rtl_altitude : float;  (** Metres; climb to this before returning. *)
  (* controller gains *)
  pos_p : float;  (** Position error to velocity demand. *)
  vel_p : float;  (** Velocity error to acceleration demand. *)
  max_tilt_rad : float;
  max_climb_rate : float;
  climb_pos_p : float;  (** Altitude error to climb-rate demand. *)
  climb_vel_p : float;  (** Climb-rate error to thrust-fraction demand. *)
  climb_vel_i : float;
  att_p : float;  (** Attitude error to rate demand. *)
  rate_p : float;  (** Rate error to torque demand. *)
  yaw_p : float;
  yaw_rate_p : float;
  (* sensor scheduling, seconds between samples *)
  imu_period : float;
  gps_period : float;
  baro_period : float;
  compass_period : float;
  battery_period : float;
  (* telemetry *)
  heartbeat_period : float;
  position_period : float;
  sys_status_period : float;
  (* failsafe *)
  failsafe_grace_s : float;
      (** New failures are not acted on for this long after a mode change
          (mode-change suppression, as in real autopilots). *)
  battery_low_fraction : float;  (** Battery failsafe threshold. *)
  touchdown_speed : float;  (** Climb rates below this count as settled. *)
  gcs_timeout_s : float;
      (** Heartbeat silence after which the ground station counts as
          lost. *)
  gcs_loss_action_code : float;
      (** PX4's NAV_DLL_ACT: datalink-loss action for the configurable
          personality (0 disabled, 1 hold, 2 RTL, 3 land). Ignored by
          personalities with a fixed GCS-loss action. *)
}

val default : t
