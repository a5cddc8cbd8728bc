open Avis_geo
open Avis_sensors
open Avis_mavlink

type mission_target =
  | T_takeoff of float
  | T_waypoint of int * Vec3.t  (* ordinal (1-based), local position *)
  | T_land
  | T_rtl

type after_takeoff = Run_mission | Hold_manual

type rtl_stage = Rtl_climb | Rtl_return

type t = {
  policy : Policy.t;
  fence : Avis_physics.Environment.fence option;
  params : Params.t; (* the policy's set *)
  bugs : Bug.registry;
  suite : Suite.t;
  hinj : Avis_hinj.Hinj.t;
  frame : Geodesy.frame;
  drivers : Drivers.t;
  estimator : Estimator.t;
  control : Control.t;
  protocol : Protocol.t;
  mutable time : float;
  mutable armed : bool;
  mutable phase : Phase.t;
  mutable phase_entered_at : float;
  mutable transitions : (float * Phase.t * Phase.t) list; (* newest first *)
  mutable targets : mission_target list;
  mutable target_index : int;
  mutable takeoff_target : float;
  mutable after_takeoff : after_takeoff;
  mutable manual_target : Vec3.t;
  mutable yaw_target : float;
  mutable land_capture : Vec3.t;
  mutable rtl_stage : rtl_stage;
  mutable rtl_capture : Vec3.t;
  mutable touchdown_since : float option;
  mutable alt_ema_fast : float;
  mutable alt_ema_slow : float;
  mutable alt_history : float list; (* slow EMA sampled every second, newest first *)
  mutable alt_history_next : float;
  mutable did_state_reset : bool;
  mutable triggered : Bug.id list;
}

(* Launch position in the local frame: every run takes off from the
   origin. *)
let home = Vec3.zero

let create ?fence ~policy ~bugs ~suite ~hinj ~link ~frame () =
  let params = policy.Policy.params in
  let drivers = Drivers.create ~params ~suite ~hinj () in
  let estimator = Estimator.create ~params () in
  let control = Control.create ~params () in
  let protocol = Protocol.create ~link ~frame ~params () in
  let t =
    {
      policy;
      fence;
      params;
      bugs;
      suite;
      hinj;
      frame;
      drivers;
      estimator;
      control;
      protocol;
      time = 0.0;
      armed = false;
      phase = Phase.Preflight;
      phase_entered_at = 0.0;
      transitions = [];
      targets = [];
      target_index = 0;
      takeoff_target = 0.0;
      after_takeoff = Hold_manual;
      manual_target = Vec3.zero;
      yaw_target = 0.0;
      land_capture = Vec3.zero;
      rtl_stage = Rtl_climb;
      rtl_capture = Vec3.zero;
      touchdown_since = None;
      alt_ema_fast = 0.0;
      alt_ema_slow = 0.0;
      alt_history = [];
      alt_history_next = 0.0;
      did_state_reset = false;
      triggered = [];
    }
  in
  Avis_hinj.Hinj.update_mode hinj ~time:0.0 (Phase.label Phase.Preflight);
  t

let set_phase t phase =
  if not (Phase.equal t.phase phase) then begin
    t.transitions <- (t.time, t.phase, phase) :: t.transitions;
    t.phase <- phase;
    t.phase_entered_at <- t.time;
    t.touchdown_since <- None;
    t.alt_history <- [];
    Avis_hinj.Hinj.update_mode t.hinj ~time:t.time (Phase.label phase)
  end

(* Hold the last heading when close to the target: chasing the bearing of
   a nearby point makes the yaw spin as the vehicle passes it. *)
let bearing from_pos to_pos =
  let open Vec3 in
  let d = sub to_pos from_pos in
  if norm (horizontal d) < 5.0 then None else Some (atan2 d.y d.x)

let parse_mission t items =
  let waypoint_ordinal = ref 0 in
  List.filter_map
    (fun (item : Msg.mission_item) ->
      if item.Msg.command = Msg.cmd_takeoff then Some (T_takeoff item.Msg.z)
      else if item.Msg.command = Msg.cmd_waypoint then begin
        incr waypoint_ordinal;
        let local =
          Geodesy.to_local t.frame
            { Geodesy.lat = item.Msg.x; lon = item.Msg.y; alt = item.Msg.z }
        in
        Some (T_waypoint (!waypoint_ordinal, local))
      end
      else if item.Msg.command = Msg.cmd_land then Some T_land
      else if item.Msg.command = Msg.cmd_return_to_launch then Some T_rtl
      else None)
    items

(* Advance to the mission target at [t.target_index], entering the
   corresponding phase; called at takeoff completion and waypoint arrival. *)
let rec engage_current_target t =
  if t.target_index >= List.length t.targets then begin
    (* Mission exhausted: return home as ArduPilot's AUTO does. *)
    t.rtl_stage <- Rtl_climb;
    t.rtl_capture <- Estimator.position t.estimator;
    set_phase t Phase.Rtl
  end
  else
    match List.nth t.targets t.target_index with
    | T_takeoff alt ->
      t.takeoff_target <- alt;
      t.after_takeoff <- Run_mission;
      set_phase t Phase.Takeoff
    | T_waypoint (ordinal, _) -> set_phase t (Phase.Waypoint ordinal)
    | T_land ->
      t.land_capture <- Estimator.position t.estimator;
      set_phase t Phase.Land
    | T_rtl ->
      t.rtl_stage <- Rtl_climb;
      t.rtl_capture <- Estimator.position t.estimator;
      set_phase t Phase.Rtl

and advance_mission t =
  t.target_index <- t.target_index + 1;
  engage_current_target t

let handle_request t req =
  let est_pos = Estimator.position t.estimator in
  let airborne = Phase.is_airborne t.phase in
  match req with
  | Protocol.Req_arm ->
    let fresh = Phase.equal t.phase Phase.Preflight && not t.armed in
    if fresh then begin
      t.armed <- true;
      Control.reset t.control
    end;
    (* A retransmitted ARM that finds the vehicle already armed succeeded
       the first time; acknowledge it as such instead of refusing. *)
    Protocol.ack_command t.protocol ~command:Msg.cmd_arm_disarm
      ~accepted:(fresh || t.armed)
  | Protocol.Req_disarm ->
    let ok = not airborne in
    if ok then t.armed <- false;
    Protocol.ack_command t.protocol ~command:Msg.cmd_arm_disarm ~accepted:ok
  | Protocol.Req_takeoff alt ->
    let fresh = t.armed && Phase.equal t.phase Phase.Preflight in
    (* A duplicate of a takeoff already under way (same target, climbing
       or already holding at it) is acknowledged, not refused. *)
    let duplicate =
      t.armed && t.takeoff_target = alt
      && (Phase.equal t.phase Phase.Takeoff
         || (Phase.equal t.phase Phase.Manual && t.after_takeoff = Hold_manual))
    in
    if fresh then begin
      t.takeoff_target <- alt;
      t.after_takeoff <- Hold_manual;
      set_phase t Phase.Takeoff
    end;
    Protocol.ack_command t.protocol ~command:Msg.cmd_takeoff
      ~accepted:(fresh || duplicate)
  | Protocol.Req_auto ->
    if t.armed && Phase.equal t.phase Phase.Preflight then begin
      let targets = parse_mission t (Protocol.mission t.protocol) in
      if targets <> [] then begin
        t.targets <- targets;
        t.target_index <- 0;
        engage_current_target t
      end
    end
  | Protocol.Req_land ->
    (* A duplicate while already landing must not recapture the descent
       point mid-flight. *)
    if airborne && not (Phase.equal t.phase Phase.Land) then begin
      t.land_capture <- est_pos;
      set_phase t Phase.Land
    end;
    Protocol.ack_command t.protocol ~command:Msg.cmd_land ~accepted:airborne
  | Protocol.Req_rtl ->
    (* Likewise, a duplicate must not restart the RTL climb stage. *)
    if airborne && not (Phase.equal t.phase Phase.Rtl) then begin
      t.rtl_stage <- Rtl_climb;
      t.rtl_capture <- est_pos;
      set_phase t Phase.Rtl
    end;
    Protocol.ack_command t.protocol ~command:Msg.cmd_return_to_launch
      ~accepted:airborne
  | Protocol.Req_manual ->
    if airborne then begin
      t.manual_target <- est_pos;
      set_phase t Phase.Manual
    end
  | Protocol.Req_reposition target ->
    let ok = Phase.equal t.phase Phase.Manual in
    if ok then t.manual_target <- target;
    Protocol.ack_command t.protocol ~command:Msg.cmd_reposition ~accepted:ok

(* The firmware's own geofence: return to launch before crossing it. *)
let check_fence t =
  match t.fence with
  | None -> ()
  | Some f ->
    if
      Phase.is_airborne t.phase
      && (not (Phase.equal t.phase Phase.Rtl))
      && (not (Phase.equal t.phase Phase.Land))
    then begin
      let open Vec3 in
      let pos = Estimator.position t.estimator in
      let margin = 3.0 in
      let outside_soon =
        norm (horizontal (sub pos f.Avis_physics.Environment.centre_xy))
        > f.Avis_physics.Environment.radius_m -. margin
        || pos.z > f.Avis_physics.Environment.max_alt_m -. margin
      in
      if outside_soon then begin
        t.rtl_stage <- Rtl_climb;
        t.rtl_capture <- pos;
        set_phase t Phase.Rtl
      end
    end

let apply_failsafe_request t (dirs : Failsafe.directives) =
  (* A failsafe firing while the vehicle is still on the ground aborts
     the takeoff: disarm rather than fly a degraded mission. Once the
     vehicle has actually left the ground the failsafe flies instead. *)
  let aborting =
    dirs.Failsafe.phase_request <> None
    && (Phase.equal t.phase Phase.Preflight
       || Phase.equal t.phase Phase.Takeoff)
    && Estimator.altitude t.estimator < 0.5
    && Float.abs (Estimator.climb_rate t.estimator) < 0.5
  in
  if aborting && t.armed then begin
    t.armed <- false;
    if not (Phase.equal t.phase Phase.Preflight) then set_phase t Phase.Landed
  end
  else if t.armed && Phase.is_airborne t.phase then
    match dirs.Failsafe.phase_request with
    | None -> ()
    | Some Failsafe.Fs_land ->
      if not (Phase.equal t.phase Phase.Land) then begin
        t.land_capture <- Estimator.position t.estimator;
        set_phase t Phase.Land
      end
    | Some Failsafe.Fs_rtl ->
      if not (Phase.equal t.phase Phase.Rtl)
         && not (Phase.equal t.phase Phase.Land) then begin
        t.rtl_stage <- Rtl_climb;
        t.rtl_capture <- Estimator.position t.estimator;
        set_phase t Phase.Rtl
      end
    | Some Failsafe.Fs_altitude_hold ->
      if not (Phase.equal t.phase Phase.Manual)
         && not (Phase.equal t.phase Phase.Land)
         && not (Phase.equal t.phase Phase.Rtl) then begin
        t.manual_target <- Estimator.position t.estimator;
        set_phase t Phase.Manual
      end

(* Without a position source the guarded behaviour drops horizontal
   position control (attitude hold only); the flawed paths that keep the
   controller engaged on dead-reckoned state set [blind_position_hold]. *)
let horizontal_target t (dirs : Failsafe.directives) target =
  let no_position =
    Estimator.pos_mode t.estimator = Estimator.Pos_dead_reckon
    && not dirs.Failsafe.blind_position_hold
  in
  if no_position || dirs.Failsafe.degraded_position_hold then (None, true)
  else (Some target, false)

let climb_demand_towards t target_alt =
  let err = target_alt -. Estimator.altitude t.estimator in
  Avis_util.Stats.clamp ~lo:(-.t.params.Params.max_climb_rate)
    ~hi:t.params.Params.max_climb_rate
    (t.params.Params.climb_pos_p *. err)

let descent_demand t ~gentle =
  let alt = Estimator.altitude t.estimator in
  if gentle then
    (* Degraded vertical estimate: no fast stage, early and slow flare. *)
    if alt > 2.0 *. t.params.Params.land_flare_alt then -1.0 else -0.4
  else if alt > t.params.Params.land_fast_descent_alt then
    -.t.params.Params.land_fast_descent_rate
  else if alt > t.params.Params.land_flare_alt then
    -.t.params.Params.land_descent_rate
  else -.t.params.Params.land_flare_rate

(* APM-16682's flawed landing abort: climb back to a "safe" altitude with
   the raw GPS altitude as feedback; at a real altitude of a couple of
   metres the GPS's vertical error dominates the demand. *)
let land_abort_safe_altitude = 5.0

let idle_demand est =
  {
    Control.pos_target = None;
    velocity_ff = Vec3.zero;
    climb_demand = 0.0;
    yaw_target = Estimator.yaw est;
    idle = true;
    max_speed = None;
    level_hold = false;
    open_loop_descent = false;
  }

(* Phase behaviour: produce this cycle's control demand and perform phase
   transitions driven by estimated state. *)
let run_phase t (dirs : Failsafe.directives) ~dt =
  let est = t.estimator in
  let pos = Estimator.position est in
  match t.phase with
  | Phase.Preflight | Phase.Landed -> idle_demand est
  | Phase.Takeoff ->
    if not dirs.Failsafe.takeoff_gate_open then
      (* Gate closed: the climb is refused every cycle; the vehicle sits
         on the ground with the motors at idle. *)
      idle_demand est
    else begin
      let done_climb =
        Estimator.altitude est
        >= t.takeoff_target -. t.params.Params.takeoff_accept_m
      in
      if done_climb then begin
        (match t.after_takeoff with
        | Run_mission -> advance_mission t
        | Hold_manual ->
          t.manual_target <-
            { pos with Vec3.z = t.takeoff_target };
          set_phase t Phase.Manual);
        Control.hold_demand ~yaw:t.yaw_target ~pos
      end
      else
        {
          Control.pos_target = Some { home with Vec3.z = pos.Vec3.z };
          velocity_ff = Vec3.zero;
          climb_demand =
            Float.min t.params.Params.takeoff_climb_rate
              (climb_demand_towards t t.takeoff_target);
          yaw_target = t.yaw_target;
          idle = false;
          max_speed = None;
          level_hold = false;
          open_loop_descent = false;
        }
    end
  | Phase.Waypoint _ ->
    let target =
      match List.nth_opt t.targets t.target_index with
      | Some (T_waypoint (_, p)) -> p
      | Some (T_takeoff _) | Some T_land | Some T_rtl | None ->
        (* Phase/mission mismatch can only follow an external phase change;
           hold position. *)
        pos
    in
    let open Vec3 in
    let horizontal_dist = norm (horizontal (sub target pos)) in
    if horizontal_dist < t.params.Params.waypoint_radius then begin
      advance_mission t;
      Control.hold_demand ~yaw:t.yaw_target ~pos
    end
    else begin
      (match bearing pos target with
      | Some b -> t.yaw_target <- b
      | None -> ());
      let pos_target, level_hold = horizontal_target t dirs target in
      {
        Control.pos_target;
        velocity_ff = Vec3.zero;
        climb_demand = climb_demand_towards t target.z;
        yaw_target = t.yaw_target;
        idle = false;
        (* Taper the approach so corner arrivals are consistent. *)
        max_speed = Some (Float.max 1.5 (0.4 *. horizontal_dist));
        level_hold;
        open_loop_descent = false;
      }
    end
  | Phase.Manual ->
    let pos_target, level_hold = horizontal_target t dirs t.manual_target in
    {
      Control.pos_target;
      velocity_ff = Vec3.zero;
      climb_demand = climb_demand_towards t t.manual_target.Vec3.z;
      yaw_target = t.yaw_target;
      idle = false;
      max_speed = None;
      level_hold;
      open_loop_descent = false;
    }
  | Phase.Rtl ->
    let rtl_alt =
      Float.max t.params.Params.rtl_altitude (t.rtl_capture.Vec3.z)
    in
    (match t.rtl_stage with
    | Rtl_climb ->
      if Estimator.altitude t.estimator >= rtl_alt -. 0.3 then
        t.rtl_stage <- Rtl_return;
      let pos_target, level_hold =
        horizontal_target t dirs { t.rtl_capture with Vec3.z = rtl_alt }
      in
      {
        Control.pos_target;
        velocity_ff = Vec3.zero;
        climb_demand = climb_demand_towards t rtl_alt;
        yaw_target = t.yaw_target;
        idle = false;
        max_speed = None;
        level_hold;
        open_loop_descent = false;
      }
    | Rtl_return ->
      let target = { home with Vec3.z = rtl_alt } in
      let open Vec3 in
      let horizontal_dist = norm (horizontal (sub target pos)) in
      let slow_enough =
        norm (horizontal (Estimator.velocity t.estimator)) < 1.0
      in
      if horizontal_dist < t.params.Params.waypoint_radius && slow_enough
      then begin
        t.land_capture <- pos;
        set_phase t Phase.Land;
        Control.hold_demand ~yaw:t.yaw_target ~pos
      end
      else begin
        (match bearing pos target with
        | Some b -> t.yaw_target <- b
        | None -> ());
        let pos_target, level_hold = horizontal_target t dirs target in
        {
          Control.pos_target;
          velocity_ff = Vec3.zero;
          climb_demand = climb_demand_towards t rtl_alt;
          yaw_target = t.yaw_target;
          idle = false;
          max_speed = Some (Float.max 1.5 (0.4 *. horizontal_dist));
          level_hold;
          open_loop_descent = false;
        }
      end)
  | Phase.Land ->
    (* APM-16967's flawed state reset near the end of the landing. *)
    (match dirs.Failsafe.reset_state_below with
    | Some threshold
      when (not t.did_state_reset) && Estimator.altitude est < threshold ->
      t.did_state_reset <- true;
      Estimator.reset_state est
    | Some _ | None -> ());
    let climb =
      if dirs.Failsafe.land_abort_climb then
        Avis_util.Stats.clamp ~lo:(-4.0) ~hi:4.0
          (3.0 *. (land_abort_safe_altitude -. Estimator.altitude est))
      else descent_demand t ~gentle:dirs.Failsafe.gentle_descent
    in
    let settled =
      (* Touchdown detector: near the ground and the (filtered) altitude
         has stopped falling over the last few seconds. Land always
         demands a descent, so only ground contact can stall the altitude;
         the long window makes the check robust to the noisier altitude
         sources the failsafes fall back on. *)
      let stagnant =
        match List.rev t.alt_history with
        | oldest :: _ when List.length t.alt_history >= 4 ->
          oldest -. t.alt_ema_slow < 0.35
        | _ -> false
      in
      (not dirs.Failsafe.touchdown_blind) && t.alt_ema_fast < 2.5 && stagnant
    in
    (match (settled, t.touchdown_since) with
    | true, None -> t.touchdown_since <- Some t.time
    | true, Some since when t.time -. since > 1.0 ->
      t.armed <- false;
      set_phase t Phase.Landed
    | true, Some _ -> ()
    | false, _ -> t.touchdown_since <- None);
    ignore dt;
    let pos_target, level_hold =
      horizontal_target t dirs (Vec3.horizontal t.land_capture)
    in
    {
      Control.pos_target;
      velocity_ff = Vec3.zero;
      climb_demand = climb;
      yaw_target = t.yaw_target;
      idle = not t.armed;
      max_speed = Some 2.0;
      level_hold;
      open_loop_descent = dirs.Failsafe.gentle_descent && climb < 0.0;
    }

let battery_state t =
  match Drivers.stale t.drivers Sensor.Battery with
  | Some (Sensor.Battery_state { voltage; remaining }) -> (voltage, remaining)
  | Some _ | None -> (12.6, 1.0)

(* Direct recursions rather than [List.iter] over a closure: the step
   runs both every cycle, nearly always on an empty list. *)
let rec note_triggered t = function
  | [] -> ()
  | b :: rest ->
    if not (List.memq b t.triggered) then t.triggered <- b :: t.triggered;
    note_triggered t rest

let rec handle_requests t = function
  | [] -> ()
  | req :: rest ->
    handle_request t req;
    handle_requests t rest

let step t world ~dt =
  t.time <- t.time +. dt;
  Drivers.sample t.drivers world ~time:t.time;
  (let alt = Estimator.altitude t.estimator in
   let blend tau prev = prev +. (dt /. tau *. (alt -. prev)) in
   t.alt_ema_fast <- blend 0.3 t.alt_ema_fast;
   t.alt_ema_slow <- blend 0.5 t.alt_ema_slow;
   if t.time >= t.alt_history_next then begin
     t.alt_history_next <- t.time +. 1.0;
     t.alt_history <-
       (if List.length t.alt_history >= 4 then
          t.alt_ema_slow :: List.filteri (fun i _ -> i < 3) t.alt_history
        else t.alt_ema_slow :: t.alt_history)
   end);
  let voltage, remaining = battery_state t in
  let battery_low = remaining < t.params.Params.battery_low_fraction in
  let gcs_lost_at =
    match Protocol.gcs_last_heartbeat t.protocol with
    | None -> None
    | Some last ->
      let deadline = last +. t.params.Params.gcs_timeout_s in
      if t.time > deadline then Some deadline else None
  in
  let ctx =
    {
      Failsafe.phase = t.phase;
      phase_entered_at = t.phase_entered_at;
      (* Newest first: [Failsafe] only asks whether any transition
         matches, so the order does not matter. *)
      transitions = (0.0, Phase.Preflight, Phase.Preflight) :: t.transitions;
      time = t.time;
      gcs_lost_at;
    }
  in
  let dirs =
    Failsafe.evaluate ~policy:t.policy ~params:t.params ~bugs:t.bugs
      ~drivers:t.drivers ~ctx ~battery_low
  in
  note_triggered t dirs.Failsafe.triggered_bugs;
  Estimator.set_alt_mode t.estimator dirs.Failsafe.alt_mode;
  Estimator.set_att_mode t.estimator dirs.Failsafe.att_mode;
  Estimator.set_yaw_mode t.estimator dirs.Failsafe.yaw_mode;
  Estimator.set_pos_mode t.estimator dirs.Failsafe.pos_mode;
  Estimator.set_heading_valid t.estimator dirs.Failsafe.heading_valid;
  Estimator.update t.estimator t.drivers ~dt;
  let telemetry =
    {
      Protocol.phase_code = Phase.to_code t.phase;
      armed = t.armed;
      position = Estimator.position t.estimator;
      velocity = Estimator.velocity t.estimator;
      yaw = Estimator.yaw t.estimator;
      battery_voltage = voltage;
      battery_remaining = remaining;
    }
  in
  let requests = Protocol.step t.protocol ~time:t.time telemetry in
  handle_requests t requests;
  apply_failsafe_request t dirs;
  check_fence t;
  let demand = run_phase t dirs ~dt in
  let demand =
    if t.armed || demand.Control.idle then demand
    else { demand with Control.idle = true }
  in
  Control.step t.control t.estimator demand ~dt

let time t = t.time
let phase t = t.phase
let armed t = t.armed
let policy t = t.policy
let bugs t = t.bugs
let transitions t = List.rev t.transitions
let estimator t = t.estimator
let triggered_bugs t = t.triggered

let encode_phase b phase =
  let open Avis_util.Codec in
  match phase with
  | Phase.Preflight -> w_u8 b 0
  | Phase.Takeoff -> w_u8 b 1
  | Phase.Manual -> w_u8 b 2
  | Phase.Rtl -> w_u8 b 3
  | Phase.Land -> w_u8 b 4
  | Phase.Landed -> w_u8 b 5
  | Phase.Waypoint i ->
    w_u8 b 6;
    w_int b i

let decode_phase r =
  let open Avis_util.Codec in
  match r_u8 r with
  | 0 -> Phase.Preflight
  | 1 -> Phase.Takeoff
  | 2 -> Phase.Manual
  | 3 -> Phase.Rtl
  | 4 -> Phase.Land
  | 5 -> Phase.Landed
  | 6 -> Phase.Waypoint (r_int r)
  | t -> corrupt "bad phase tag %d" t

let encode_target b target =
  let open Avis_util.Codec in
  match target with
  | T_takeoff alt ->
    w_u8 b 0;
    w_f64 b alt
  | T_waypoint (ordinal, p) ->
    w_u8 b 1;
    w_int b ordinal;
    Vec3.encode b p
  | T_land -> w_u8 b 2
  | T_rtl -> w_u8 b 3

let decode_target r =
  let open Avis_util.Codec in
  match r_u8 r with
  | 0 -> T_takeoff (r_f64 r)
  | 1 ->
    let ordinal = r_int r in
    let p = Vec3.decode r in
    T_waypoint (ordinal, p)
  | 2 -> T_land
  | 3 -> T_rtl
  | t -> corrupt "bad mission-target tag %d" t

(* The policy, the fence and the bug registry are the run's config, and
   the collaborators and the home frame are the decoding caller's: none of
   them is written. The record is destructured exhaustively (warning 9 is
   an error here), so a field added to [t] does not compile until it is
   encoded below or bound to [_] with the reason it need not travel: every
   prefix-cache hit decodes this layout. *)
let encode b (t : t) =
  let[@warning "+9"] {
    policy = _;
    fence = _;
    params = _ (* the policy's set *);
    bugs = _ (* the run's config, passed back to [decode] *);
    suite = _;
    hinj = _ (* collaborators, decoded by the caller and passed back *);
    frame = _ (* the home frame, which the caller passes back *);
    drivers;
    estimator;
    control;
    protocol;
    time;
    armed;
    phase;
    phase_entered_at;
    transitions;
    targets;
    target_index;
    takeoff_target;
    after_takeoff;
    manual_target;
    yaw_target;
    land_capture;
    rtl_stage;
    rtl_capture;
    touchdown_since;
    alt_ema_fast;
    alt_ema_slow;
    alt_history;
    alt_history_next;
    did_state_reset;
    triggered;
  } =
    t
  in
  let open Avis_util.Codec in
  Estimator.encode b estimator;
  Control.encode b control;
  w_f64 b time;
  w_bool b armed;
  encode_phase b phase;
  w_f64 b phase_entered_at;
  w_list b
    (fun b (at, from_p, to_p) ->
      w_f64 b at;
      encode_phase b from_p;
      encode_phase b to_p)
    transitions;
  w_list b encode_target targets;
  w_int b target_index;
  w_f64 b takeoff_target;
  w_u8 b (match after_takeoff with Run_mission -> 0 | Hold_manual -> 1);
  Vec3.encode b manual_target;
  w_f64 b yaw_target;
  Vec3.encode b land_capture;
  w_u8 b (match rtl_stage with Rtl_climb -> 0 | Rtl_return -> 1);
  Vec3.encode b rtl_capture;
  w_option b w_f64 touchdown_since;
  w_f64 b alt_ema_fast;
  w_f64 b alt_ema_slow;
  w_list b w_f64 alt_history;
  w_f64 b alt_history_next;
  w_bool b did_state_reset;
  w_list b Bug.encode_id triggered;
  Drivers.encode b drivers;
  Protocol.encode b protocol

let decode ?fence ~policy ~bugs ~suite ~hinj ~link ~frame r : t =
  let open Avis_util.Codec in
  let params = policy.Policy.params in
  let estimator = Estimator.decode ~params r in
  let control = Control.decode ~params r in
  let time = r_f64 r in
  let armed = r_bool r in
  let phase = decode_phase r in
  let phase_entered_at = r_f64 r in
  let transitions =
    r_list r (fun r ->
        let at = r_f64 r in
        let from_p = decode_phase r in
        let to_p = decode_phase r in
        (at, from_p, to_p))
  in
  let targets = r_list r decode_target in
  let target_index = r_int r in
  let takeoff_target = r_f64 r in
  let after_takeoff =
    match r_u8 r with
    | 0 -> Run_mission
    | 1 -> Hold_manual
    | t -> corrupt "bad after-takeoff tag %d" t
  in
  let manual_target = Vec3.decode r in
  let yaw_target = r_f64 r in
  let land_capture = Vec3.decode r in
  let rtl_stage =
    match r_u8 r with
    | 0 -> Rtl_climb
    | 1 -> Rtl_return
    | t -> corrupt "bad rtl-stage tag %d" t
  in
  let rtl_capture = Vec3.decode r in
  let touchdown_since = r_option r r_f64 in
  let alt_ema_fast = r_f64 r in
  let alt_ema_slow = r_f64 r in
  let alt_history = r_list r r_f64 in
  let alt_history_next = r_f64 r in
  let did_state_reset = r_bool r in
  let triggered = r_list r Bug.decode_id in
  let drivers = Drivers.decode ~params ~suite ~hinj r in
  let protocol = Protocol.decode ~link ~frame ~params r in
  {
    policy;
    fence;
    params;
    bugs;
    suite;
    hinj;
    frame;
    drivers;
    estimator;
    control;
    protocol;
    time;
    armed;
    phase;
    phase_entered_at;
    transitions;
    targets;
    target_index;
    takeoff_target;
    after_takeoff;
    manual_target;
    yaw_target;
    land_capture;
    rtl_stage;
    rtl_capture;
    touchdown_since;
    alt_ema_fast;
    alt_ema_slow;
    alt_history;
    alt_history_next;
    did_state_reset;
    triggered;
  }
