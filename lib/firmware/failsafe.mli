(** Sensor- and datalink-failure handling — the code under test.

    Every control cycle this module looks at which sensor kinds have been
    lost — and whether the ground station's heartbeats have gone silent —
    and decides how the firmware responds: which estimator source modes to
    use, whether to request a failsafe mode change, and whether any of the
    auxiliary behaviours (touchdown detection, state resets, landing
    aborts) are affected.

    The *guarded* decisions are the safe ones; each reproduced bug replaces
    a guarded decision with the flawed one the paper found, and only fires
    when its registered trigger window matches the failure's timing — which
    is exactly why fault-injection timing matters and why SABRE prioritises
    mode boundaries. *)

type flight_context = {
  phase : Phase.t;
  phase_entered_at : float;
  transitions : (float * Phase.t * Phase.t) list;
      (** Mode-transition history in any order, including the initial
          entry into [Preflight] as [(0, Preflight, Preflight)]. *)
  time : float;
  gcs_lost_at : float option;
      (** When the ground station's heartbeat silence exceeded the
          timeout (the deadline itself, not the current time); [None]
          while the datalink is healthy or before first contact. *)
}

type phase_request =
  | Fs_land
  | Fs_rtl
  | Fs_altitude_hold  (** Degrade to Manual hold (PX4 GPS loss). *)

type directives = {
  alt_mode : Estimator.alt_mode;
  att_mode : Estimator.att_mode;
  yaw_mode : Estimator.yaw_mode;
  pos_mode : Estimator.pos_mode;
  phase_request : phase_request option;
  takeoff_gate_open : bool;
      (** False keeps the climb demand at zero during takeoff. *)
  touchdown_blind : bool;  (** APM-9349: touchdown detector disabled. *)
  reset_state_below : float option;
      (** APM-16967: reset the state estimate below this estimated
          altitude while landing. *)
  land_abort_climb : bool;
      (** APM-16682: abort the landing and climb to a "safe" altitude using
          raw GPS altitude as the reference. *)
  gentle_descent : bool;
      (** Guarded IMU loss: descend conservatively because the climb-rate
          estimate is degraded. *)
  blind_position_hold : bool;
      (** APM-4455: keep the position controller engaged on dead-reckoned
          state. The guarded behaviour drops horizontal position control
          when no position source remains. *)
  degraded_position_hold : bool;
      (** Guarded IMU loss: fly level instead of position-holding — the
          attitude/velocity estimates are too coarse for tight control. *)
  heading_valid : bool;
  triggered_bugs : Bug.id list;
      (** Which bug triggers matched this cycle (diagnostics only — the
          checker never reads this; it must detect misbehaviour from the
          vehicle's physics). *)
}

val bug_window_matches :
  Bug.info -> ctx:flight_context -> failed_at:float -> bool
(** Does a failure that began at [failed_at] fall inside the bug's window,
    given the observed transition history? *)

val evaluate :
  policy:Policy.t ->
  params:Params.t ->
  bugs:Bug.registry ->
  drivers:Drivers.t ->
  ctx:flight_context ->
  battery_low:bool ->
  directives
(** [params] is the vehicle's parameter set: its personality's, except in
    the tests that vary PX4's NAV_DLL_ACT. *)
