open Avis_sensors

type flight_context = {
  phase : Phase.t;
  phase_entered_at : float;
  transitions : (float * Phase.t * Phase.t) list;
  time : float;
  gcs_lost_at : float option;
}

type phase_request = Fs_land | Fs_rtl | Fs_altitude_hold

type directives = {
  alt_mode : Estimator.alt_mode;
  att_mode : Estimator.att_mode;
  yaw_mode : Estimator.yaw_mode;
  pos_mode : Estimator.pos_mode;
  phase_request : phase_request option;
  takeoff_gate_open : bool;
  touchdown_blind : bool;
  reset_state_below : float option;
  land_abort_climb : bool;
  gentle_descent : bool;
  blind_position_hold : bool;
  degraded_position_hold : bool;
  heading_valid : bool;
  triggered_bugs : Bug.id list;
}

let defaults =
  {
    alt_mode = Estimator.Alt_fused;
    att_mode = Estimator.Att_normal;
    yaw_mode = Estimator.Yaw_compass;
    pos_mode = Estimator.Pos_gps;
    phase_request = None;
    takeoff_gate_open = true;
    touchdown_blind = false;
    reset_state_below = None;
    land_abort_climb = false;
    gentle_descent = false;
    blind_position_hold = false;
    degraded_position_hold = false;
    heading_valid = true;
    triggered_bugs = [];
  }

let bug_window_matches (info : Bug.info) ~ctx ~failed_at =
  let w = info.Bug.window in
  List.exists
    (fun (tm, from_phase, to_phase) ->
      Phase.matches w.Bug.from_phase from_phase
      && Phase.matches w.Bug.to_phase to_phase
      && failed_at >= tm -. w.Bug.pre_s
      && failed_at <= tm +. w.Bug.post_s)
    ctx.transitions

(* A kind is "lost" once every instance has failed; bug windows are judged
   against the moment the last instance died, because that is when the
   failure-handling logic in question actually runs. *)
let lost_at = Drivers.kind_failed_at

let stronger a b =
  (* Land beats RTL beats altitude-hold: the safest available action wins
     when several failsafes fire at once. *)
  match (a, b) with
  | Some Fs_land, _ | _, Some Fs_land -> Some Fs_land
  | Some Fs_rtl, _ | _, Some Fs_rtl -> Some Fs_rtl
  | Some Fs_altitude_hold, _ | _, Some Fs_altitude_hold -> Some Fs_altitude_hold
  | None, None -> None

let evaluate ~policy ~params ~bugs ~drivers ~ctx ~battery_low =
  let active bug_id failed_at =
    Bug.enabled bugs bug_id
    && bug_window_matches (Bug.info bug_id) ~ctx ~failed_at
  in
  let d = ref defaults in
  let trigger bug_id = d := { !d with triggered_bugs = bug_id :: !d.triggered_bugs } in
  let request r = d := { !d with phase_request = stronger !d.phase_request (Some r) } in

  (* Gyroscope loss. *)
  (match lost_at drivers Sensor.Gyroscope with
  | None -> ()
  | Some failed_at ->
    let age = ctx.time -. failed_at in
    ignore age;
    if active Bug.Px4_17057 failed_at then begin
      trigger Bug.Px4_17057;
      d := { !d with att_mode = Estimator.Att_frozen }
    end
    else if active Bug.Apm_16953 failed_at then begin
      trigger Bug.Apm_16953;
      d := { !d with att_mode = Estimator.Att_frozen }
    end
    else if active Bug.Px4_17046 failed_at then begin
      trigger Bug.Px4_17046;
      (* Flawed: the yaw loop's correction sign flips while the mission
         carries on; the heading estimate runs away and the return leg
         spirals outwards. *)
      d := { !d with att_mode = Estimator.Att_accel_only;
                     yaw_mode = Estimator.Yaw_flipped }
    end
    else begin
      (* Guarded: degrade to accelerometer-levelled attitude and land
         gently and level — the rate information is gone. *)
      d := { !d with att_mode = Estimator.Att_accel_only;
                     gentle_descent = true; degraded_position_hold = true };
      request Fs_land
    end);

  (* Accelerometer loss. *)
  (match lost_at drivers Sensor.Accelerometer with
  | None -> ()
  | Some failed_at ->
    let age = ctx.time -. failed_at in
    if active Bug.Apm_16021 failed_at then begin
      trigger Bug.Apm_16021;
      (* Flawed: vertical state falls back to a heavily lagged barometer
         filter; once the (late) variance check reacts, the vehicle lands
         on that same lagged estimate. *)
      d := { !d with alt_mode = Estimator.Alt_lagged };
      if age > 2.5 then request Fs_land
    end
    else if active Bug.Apm_16682 failed_at then begin
      trigger Bug.Apm_16682;
      (* Flawed (Fig. 1): abort the landing into a GPS-guided climb without
         checking that GPS altitude can support it. *)
      d := { !d with alt_mode = Estimator.Alt_gps_raw; land_abort_climb = true }
    end
    else if active Bug.Apm_9349 failed_at then begin
      trigger Bug.Apm_9349;
      (* Flawed: the touchdown detector keys on the accelerometer jolt and
         goes blind; motors keep fighting on the ground. *)
      d := { !d with touchdown_blind = true }
    end
    else begin
      (* Guarded: the vertical velocity estimate is degraded without the
         IMU, so land on open-loop collective; GPS position hold still
         works and cancels the frozen attitude-estimate error. *)
      d := { !d with gentle_descent = true };
      request Fs_land
    end);

  (* Barometer loss. *)
  (match lost_at drivers Sensor.Barometer with
  | None -> ()
  | Some failed_at ->
    if active Bug.Apm_16027 failed_at then begin
      trigger Bug.Apm_16027;
      d := { !d with alt_mode = Estimator.Alt_frozen }
    end
    else if active Bug.Px4_17181 failed_at then begin
      trigger Bug.Px4_17181;
      d := { !d with alt_mode = Estimator.Alt_none }
    end
    else if active Bug.Apm_4679 failed_at then begin
      trigger Bug.Apm_4679;
      d := { !d with alt_mode = Estimator.Alt_gps_raw }
    end
    else
      (* Guarded: GPS altitude is a coarser reference, so also land/fly
         vertical manoeuvres conservatively. *)
      d := { !d with alt_mode = Estimator.Alt_gps_fused; gentle_descent = true });

  (* Compass loss. *)
  (match lost_at drivers Sensor.Compass with
  | None -> ()
  | Some failed_at ->
    let age = ctx.time -. failed_at in
    if active Bug.Px4_17192 failed_at then begin
      trigger Bug.Px4_17192;
      d := { !d with heading_valid = false; yaw_mode = Estimator.Yaw_gyro_only }
    end
    else if active Bug.Apm_16967 failed_at then begin
      trigger Bug.Apm_16967;
      d := { !d with yaw_mode = Estimator.Yaw_stale_compass;
                     reset_state_below = Some 3.0 };
      if age > 4.0 then request Fs_land
    end
    else if active Bug.Apm_5428 failed_at then begin
      trigger Bug.Apm_5428;
      d := { !d with yaw_mode = Estimator.Yaw_flipped }
    end
    else d := { !d with yaw_mode = Estimator.Yaw_gyro_only });

  (* GPS loss. *)
  let gps_lost = lost_at drivers Sensor.Gps in
  (match gps_lost with
  | None -> ()
  | Some failed_at ->
    d := { !d with pos_mode = Estimator.Pos_dead_reckon };
    if active Bug.Apm_16020 failed_at then begin
      (* Flawed: keep flying the mission on dead-reckoned state. *)
      trigger Bug.Apm_16020;
      d := { !d with blind_position_hold = true }
    end
    else if active Bug.Apm_4455 failed_at then begin
      (* Flawed: position hold stays engaged without a position source. *)
      trigger Bug.Apm_4455;
      d := { !d with blind_position_hold = true }
    end
    else begin
      match policy.Policy.gps_loss_action with
      | Policy.Gps_failsafe_land -> request Fs_land
      | Policy.Gps_altitude_hold -> request Fs_altitude_hold
    end);

  (* Battery: a lost monitor is treated as a (conservative) low battery. *)
  let battery_lost = lost_at drivers Sensor.Battery in
  (match battery_lost with
  | None -> if battery_low then
      (match gps_lost with
      | None -> request Fs_rtl
      | Some _ -> request Fs_land)
  | Some failed_at ->
    let thirteen291 =
      Bug.enabled bugs Bug.Px4_13291
      && gps_lost <> None
      && (match gps_lost with
         | Some gps_at ->
           bug_window_matches (Bug.info Bug.Px4_13291) ~ctx ~failed_at:gps_at
         | None -> false)
    in
    ignore failed_at;
    if thirteen291 then begin
      trigger Bug.Px4_13291;
      (* Flawed: the battery failsafe returns to launch even though there
         is no local position to navigate with. *)
      d := { !d with blind_position_hold = true };
      request Fs_rtl
    end
    else
      match gps_lost with None -> request Fs_rtl | Some _ -> request Fs_land);

  (* GCS datalink loss: once the ground station's heartbeats have been
     silent past the timeout, take the personality's link-loss action. *)
  (match ctx.gcs_lost_at with
  | None -> ()
  | Some _ -> (
    match Policy.gcs_loss_action policy params with
    | Policy.Gcs_disabled -> ()
    | Policy.Gcs_altitude_hold -> request Fs_altitude_hold
    | Policy.Gcs_land -> request Fs_land
    | Policy.Gcs_rtl -> (
      (* Returning without a position source would be a blind flight;
         degrade to a landing, as the battery failsafe does. *)
      match gps_lost with None -> request Fs_rtl | Some _ -> request Fs_land)));

  (* Takeoff gates (PX4): refuse to climb without valid heading/altitude. *)
  if policy.Policy.takeoff_gates then begin
    let gate_open =
      !d.heading_valid && !d.alt_mode <> Estimator.Alt_none
    in
    d := { !d with takeoff_gate_open = gate_open }
  end;
  !d
