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

let rec window_matches (w : Bug.window) failed_at = function
  | [] -> false
  | (tm, from_phase, to_phase) :: rest ->
    (Phase.matches w.Bug.from_phase from_phase
    && Phase.matches w.Bug.to_phase to_phase
    && failed_at >= tm -. w.Bug.pre_s
    && failed_at <= tm +. w.Bug.post_s)
    || window_matches w failed_at rest

let bug_window_matches (info : Bug.info) ~ctx ~failed_at =
  window_matches info.Bug.window failed_at ctx.transitions

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

let active bugs ctx bug_id failed_at =
  Bug.enabled bugs bug_id
  && bug_window_matches (Bug.info bug_id) ~ctx ~failed_at

(* The decision table for a cycle with something lost. Each directive is
   a local that the table's rows overwrite in order, as the guarded and
   flawed paths always have; the one record is built at the end. *)
let degraded ~policy ~params ~bugs ~drivers ~ctx ~battery_low =
  let alt_mode = ref defaults.alt_mode in
  let att_mode = ref defaults.att_mode in
  let yaw_mode = ref defaults.yaw_mode in
  let pos_mode = ref defaults.pos_mode in
  let phase_request = ref defaults.phase_request in
  let touchdown_blind = ref defaults.touchdown_blind in
  let reset_state_below = ref defaults.reset_state_below in
  let land_abort_climb = ref defaults.land_abort_climb in
  let gentle_descent = ref defaults.gentle_descent in
  let blind_position_hold = ref defaults.blind_position_hold in
  let degraded_position_hold = ref defaults.degraded_position_hold in
  let heading_valid = ref defaults.heading_valid in
  let triggered = ref defaults.triggered_bugs in

  (* Gyroscope loss. *)
  (match lost_at drivers Sensor.Gyroscope with
  | None -> ()
  | Some failed_at ->
    if active bugs ctx Bug.Px4_17057 failed_at then begin
      triggered := Bug.Px4_17057 :: !triggered;
      att_mode := Estimator.Att_frozen
    end
    else if active bugs ctx Bug.Apm_16953 failed_at then begin
      triggered := Bug.Apm_16953 :: !triggered;
      att_mode := Estimator.Att_frozen
    end
    else if active bugs ctx Bug.Px4_17046 failed_at then begin
      triggered := Bug.Px4_17046 :: !triggered;
      (* Flawed: the yaw loop's correction sign flips while the mission
         carries on; the heading estimate runs away and the return leg
         spirals outwards. *)
      att_mode := Estimator.Att_accel_only;
      yaw_mode := Estimator.Yaw_flipped
    end
    else begin
      (* Guarded: degrade to accelerometer-levelled attitude and land
         gently and level — the rate information is gone. *)
      att_mode := Estimator.Att_accel_only;
      gentle_descent := true;
      degraded_position_hold := true;
      phase_request := stronger !phase_request (Some Fs_land)
    end);

  (* Accelerometer loss. *)
  (match lost_at drivers Sensor.Accelerometer with
  | None -> ()
  | Some failed_at ->
    let age = ctx.time -. failed_at in
    if active bugs ctx Bug.Apm_16021 failed_at then begin
      triggered := Bug.Apm_16021 :: !triggered;
      (* Flawed: vertical state falls back to a heavily lagged barometer
         filter; once the (late) variance check reacts, the vehicle lands
         on that same lagged estimate. *)
      alt_mode := Estimator.Alt_lagged;
      if age > 2.5 then phase_request := stronger !phase_request (Some Fs_land)
    end
    else if active bugs ctx Bug.Apm_16682 failed_at then begin
      triggered := Bug.Apm_16682 :: !triggered;
      (* Flawed (Fig. 1): abort the landing into a GPS-guided climb without
         checking that GPS altitude can support it. *)
      alt_mode := Estimator.Alt_gps_raw;
      land_abort_climb := true
    end
    else if active bugs ctx Bug.Apm_9349 failed_at then begin
      triggered := Bug.Apm_9349 :: !triggered;
      (* Flawed: the touchdown detector keys on the accelerometer jolt and
         goes blind; motors keep fighting on the ground. *)
      touchdown_blind := true
    end
    else begin
      (* Guarded: the vertical velocity estimate is degraded without the
         IMU, so land on open-loop collective; GPS position hold still
         works and cancels the frozen attitude-estimate error. *)
      gentle_descent := true;
      phase_request := stronger !phase_request (Some Fs_land)
    end);

  (* Barometer loss. *)
  (match lost_at drivers Sensor.Barometer with
  | None -> ()
  | Some failed_at ->
    if active bugs ctx Bug.Apm_16027 failed_at then begin
      triggered := Bug.Apm_16027 :: !triggered;
      alt_mode := Estimator.Alt_frozen
    end
    else if active bugs ctx Bug.Px4_17181 failed_at then begin
      triggered := Bug.Px4_17181 :: !triggered;
      alt_mode := Estimator.Alt_none
    end
    else if active bugs ctx Bug.Apm_4679 failed_at then begin
      triggered := Bug.Apm_4679 :: !triggered;
      alt_mode := Estimator.Alt_gps_raw
    end
    else begin
      (* Guarded: GPS altitude is a coarser reference, so also land/fly
         vertical manoeuvres conservatively. *)
      alt_mode := Estimator.Alt_gps_fused;
      gentle_descent := true
    end);

  (* Compass loss. *)
  (match lost_at drivers Sensor.Compass with
  | None -> ()
  | Some failed_at ->
    let age = ctx.time -. failed_at in
    if active bugs ctx Bug.Px4_17192 failed_at then begin
      triggered := Bug.Px4_17192 :: !triggered;
      heading_valid := false;
      yaw_mode := Estimator.Yaw_gyro_only
    end
    else if active bugs ctx Bug.Apm_16967 failed_at then begin
      triggered := Bug.Apm_16967 :: !triggered;
      yaw_mode := Estimator.Yaw_stale_compass;
      reset_state_below := Some 3.0;
      if age > 4.0 then phase_request := stronger !phase_request (Some Fs_land)
    end
    else if active bugs ctx Bug.Apm_5428 failed_at then begin
      triggered := Bug.Apm_5428 :: !triggered;
      yaw_mode := Estimator.Yaw_flipped
    end
    else yaw_mode := Estimator.Yaw_gyro_only);

  (* GPS loss. *)
  let gps_lost = lost_at drivers Sensor.Gps in
  (match gps_lost with
  | None -> ()
  | Some failed_at ->
    pos_mode := Estimator.Pos_dead_reckon;
    if active bugs ctx Bug.Apm_16020 failed_at then begin
      (* Flawed: keep flying the mission on dead-reckoned state. *)
      triggered := Bug.Apm_16020 :: !triggered;
      blind_position_hold := true
    end
    else if active bugs ctx Bug.Apm_4455 failed_at then begin
      (* Flawed: position hold stays engaged without a position source. *)
      triggered := Bug.Apm_4455 :: !triggered;
      blind_position_hold := true
    end
    else begin
      match policy.Policy.gps_loss_action with
      | Policy.Gps_failsafe_land ->
        phase_request := stronger !phase_request (Some Fs_land)
      | Policy.Gps_altitude_hold ->
        phase_request := stronger !phase_request (Some Fs_altitude_hold)
    end);

  (* Battery: a lost monitor is treated as a (conservative) low battery.
     Without a position source the return degrades to a landing. *)
  let return_or_land = match gps_lost with None -> Some Fs_rtl | Some _ -> Some Fs_land in
  (match lost_at drivers Sensor.Battery with
  | None ->
    if battery_low then phase_request := stronger !phase_request return_or_land
  | Some _ ->
    let thirteen291 =
      Bug.enabled bugs Bug.Px4_13291
      && (match gps_lost with
         | Some gps_at ->
           bug_window_matches (Bug.info Bug.Px4_13291) ~ctx ~failed_at:gps_at
         | None -> false)
    in
    if thirteen291 then begin
      triggered := Bug.Px4_13291 :: !triggered;
      (* Flawed: the battery failsafe returns to launch even though there
         is no local position to navigate with. *)
      blind_position_hold := true;
      phase_request := stronger !phase_request (Some Fs_rtl)
    end
    else phase_request := stronger !phase_request return_or_land);

  (* GCS datalink loss: once the ground station's heartbeats have been
     silent past the timeout, take the personality's link-loss action. *)
  (match ctx.gcs_lost_at with
  | None -> ()
  | Some _ -> (
    match Policy.gcs_loss_action policy params with
    | Policy.Gcs_disabled -> ()
    | Policy.Gcs_altitude_hold ->
      phase_request := stronger !phase_request (Some Fs_altitude_hold)
    | Policy.Gcs_land -> phase_request := stronger !phase_request (Some Fs_land)
    | Policy.Gcs_rtl ->
      (* Returning without a position source would be a blind flight;
         degrade to a landing, as the battery failsafe does. *)
      phase_request := stronger !phase_request return_or_land));

  {
    alt_mode = !alt_mode;
    att_mode = !att_mode;
    yaw_mode = !yaw_mode;
    pos_mode = !pos_mode;
    phase_request = !phase_request;
    (* Takeoff gates (PX4): refuse to climb without valid heading/altitude. *)
    takeoff_gate_open =
      (not policy.Policy.takeoff_gates)
      || (!heading_valid && !alt_mode <> Estimator.Alt_none);
    touchdown_blind = !touchdown_blind;
    reset_state_below = !reset_state_below;
    land_abort_climb = !land_abort_climb;
    gentle_descent = !gentle_descent;
    blind_position_hold = !blind_position_hold;
    degraded_position_hold = !degraded_position_hold;
    heading_valid = !heading_valid;
    triggered_bugs = !triggered;
  }

(* With nothing lost, the link up and the battery fine, every directive is
   its default for either personality, the PX4 takeoff gate included
   (heading valid, altitude fused): the common cycle allocates nothing. *)
let evaluate ~policy ~params ~bugs ~drivers ~ctx ~battery_low =
  if
    ctx.gcs_lost_at = None && (not battery_low)
    && lost_at drivers Sensor.Gyroscope = None
    && lost_at drivers Sensor.Accelerometer = None
    && lost_at drivers Sensor.Barometer = None
    && lost_at drivers Sensor.Compass = None
    && lost_at drivers Sensor.Gps = None
    && lost_at drivers Sensor.Battery = None
  then defaults
  else degraded ~policy ~params ~bugs ~drivers ~ctx ~battery_low
