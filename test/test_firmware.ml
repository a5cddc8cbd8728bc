(* Tests for avis_firmware: PID, phases, the bug catalogue and trigger
   windows, driver failover, the failsafe decision table, and the
   controller's basic behaviours. *)

open Avis_geo
open Avis_sensors
open Avis_firmware

let params = Params.default

(* Pid *)

let test_pid_proportional () =
  let pid = Pid.create ~kp:2.0 () in
  Alcotest.(check (float 1e-9)) "kp * error" 6.0 (Pid.update pid ~error:3.0 ~dt:0.01)

let test_pid_integral_accumulates () =
  let pid = Pid.create ~ki:1.0 () in
  let out1 = Pid.update pid ~error:1.0 ~dt:0.5 in
  let out2 = Pid.update pid ~error:1.0 ~dt:0.5 in
  Alcotest.(check (float 1e-9)) "after one step" 0.5 out1;
  Alcotest.(check (float 1e-9)) "after two steps" 1.0 out2

let test_pid_integral_clamped () =
  let pid = Pid.create ~ki:1.0 ~i_limit:0.3 () in
  for _ = 1 to 100 do
    ignore (Pid.update pid ~error:1.0 ~dt:1.0)
  done;
  Alcotest.(check (float 1e-9)) "clamped" 0.3 (Pid.update pid ~error:0.0 ~dt:0.01)

let test_pid_output_limited () =
  let pid = Pid.create ~kp:100.0 ~out_limit:1.0 () in
  Alcotest.(check (float 1e-9)) "limited" 1.0 (Pid.update pid ~error:50.0 ~dt:0.01)

let test_pid_reset () =
  let pid = Pid.create ~ki:1.0 () in
  ignore (Pid.update pid ~error:5.0 ~dt:1.0);
  Pid.reset pid;
  Alcotest.(check (float 1e-9)) "integrator cleared" 0.0
    (Pid.update pid ~error:0.0 ~dt:0.01)

let test_pid_rate_damping () =
  let pid = Pid.create ~kd:2.0 () in
  (* Damping opposes the measured rate. *)
  Alcotest.(check (float 1e-9)) "-kd * rate" (-6.0)
    (Pid.update_with_rate pid ~error:0.0 ~rate:3.0 ~dt:0.01)

(* Phase *)

let arb_phase =
  QCheck.make
    ~print:Phase.label
    QCheck.Gen.(
      oneof
        [
          oneofl
            [ Phase.Preflight; Phase.Takeoff; Phase.Manual; Phase.Rtl;
              Phase.Land; Phase.Landed ];
          map (fun i -> Phase.Waypoint i) (int_range 1 20);
        ])

let prop_phase_label_roundtrip =
  QCheck.Test.make ~name:"label/of_label roundtrip" ~count:100 arb_phase
    (fun p -> Phase.of_label (Phase.label p) = Some p)

let prop_phase_code_roundtrip =
  QCheck.Test.make ~name:"code/of_code roundtrip" ~count:100 arb_phase
    (fun p -> Phase.of_code (Phase.to_code p) = Some p)

let test_phase_patterns () =
  Alcotest.(check bool) "any" true (Phase.matches Phase.Any Phase.Land);
  Alcotest.(check bool) "exactly" true
    (Phase.matches (Phase.Exactly Phase.Takeoff) Phase.Takeoff);
  Alcotest.(check bool) "waypoint wildcard" true
    (Phase.matches Phase.Any_waypoint (Phase.Waypoint 3));
  Alcotest.(check bool) "waypoint not land" false
    (Phase.matches Phase.Any_waypoint Phase.Land);
  Alcotest.(check bool) "one_of" true
    (Phase.matches
       (Phase.One_of [ Phase.Exactly Phase.Rtl; Phase.Any_waypoint ])
       Phase.Rtl)

let test_phase_airborne () =
  Alcotest.(check bool) "takeoff airborne" true (Phase.is_airborne Phase.Takeoff);
  Alcotest.(check bool) "preflight not" false (Phase.is_airborne Phase.Preflight);
  Alcotest.(check bool) "landed not" false (Phase.is_airborne Phase.Landed)

(* Bug catalogue *)

let test_bug_catalogue_counts () =
  Alcotest.(check int) "15 bugs" 15 (List.length Bug.all);
  Alcotest.(check int) "6 unknown apm" 6 (List.length (Bug.unknown_bugs Bug.Ardupilot));
  Alcotest.(check int) "4 unknown px4" 4 (List.length (Bug.unknown_bugs Bug.Px4));
  Alcotest.(check int) "4 known apm" 4 (List.length (Bug.known_bugs Bug.Ardupilot));
  Alcotest.(check int) "1 known px4" 1 (List.length (Bug.known_bugs Bug.Px4))

let test_bug_report_lookup () =
  Alcotest.(check bool) "by report" true (Bug.of_report "APM-16682" = Some Bug.Apm_16682);
  Alcotest.(check bool) "unknown" true (Bug.of_report "APM-0" = None)

let test_bug_registry_defaults () =
  let r = Bug.registry ~enabled:(Bug.unknown_bugs Bug.Ardupilot) in
  Alcotest.(check bool) "unknown enabled" true (Bug.enabled r Bug.Apm_16682);
  Alcotest.(check bool) "known disabled" false (Bug.enabled r Bug.Apm_4455)

let test_bug_info_table () =
  List.iter
    (fun id ->
      let info = Bug.info id in
      Alcotest.(check bool) (info.Bug.report ^ " id") true (info.Bug.id = id);
      Alcotest.(check bool) (info.Bug.report ^ " built once") true
        (Bug.info id == info))
    Bug.all

let ctx_with_transitions transitions time =
  { Failsafe.phase = Phase.Land; phase_entered_at = 0.0; transitions; time;
    gcs_lost_at = None }

let test_bug_window_matching () =
  let info = Bug.info Bug.Apm_16682 in
  (* Window: Rtl -> Land, 1 s before to 6 s after. *)
  let transitions = [ (30.0, Phase.Rtl, Phase.Land) ] in
  let ctx = ctx_with_transitions transitions 40.0 in
  Alcotest.(check bool) "inside (after)" true
    (Failsafe.bug_window_matches info ~ctx ~failed_at:33.0);
  Alcotest.(check bool) "inside (before)" true
    (Failsafe.bug_window_matches info ~ctx ~failed_at:29.5);
  Alcotest.(check bool) "outside late" false
    (Failsafe.bug_window_matches info ~ctx ~failed_at:37.0);
  Alcotest.(check bool) "outside early" false
    (Failsafe.bug_window_matches info ~ctx ~failed_at:20.0);
  (* A Land entered from Waypoint (a failsafe landing) does not match. *)
  let ctx' = ctx_with_transitions [ (30.0, Phase.Waypoint 2, Phase.Land) ] 40.0 in
  Alcotest.(check bool) "wrong from-phase" false
    (Failsafe.bug_window_matches info ~ctx:ctx' ~failed_at:33.0)

(* Drivers *)

let make_drivers plan =
  let rng = Avis_util.Rng.create 3 in
  let suite = Suite.create ~rng in
  let hinj = Avis_hinj.Hinj.create ~plan () in
  let drivers = Drivers.create ~params ~suite ~hinj () in
  let world = Avis_physics.World.create ~position:(Vec3.make 0.0 0.0 10.0) () in
  (drivers, world)

let sample_until drivers world time =
  let dt = 0.004 in
  let steps = int_of_float (time /. dt) in
  for i = 1 to steps do
    Drivers.sample drivers world ~time:(float_of_int i *. dt)
  done

let test_drivers_healthy () =
  let drivers, world = make_drivers [] in
  sample_until drivers world 0.5;
  List.iter
    (fun kind ->
      let name = Sensor.kind_to_string kind in
      Alcotest.(check bool) (name ^ " not lost") true
        (Drivers.kind_failed_at drivers kind = None);
      Alcotest.(check bool) (name ^ " read") true
        (Drivers.stale drivers kind <> None))
    Sensor.all_kinds

(* With the primary failed at 0.1 s, the backup keeps serving: every GPS
   sample after the failure still yields a fresh reading, and none of
   them is the reading the primary gives drivers built from the same seed
   with no fault planned. *)
let test_drivers_failover () =
  let plan = [ { Avis_hinj.Hinj.sensor = { Sensor.kind = Sensor.Gps; index = 0 }; at = 0.1 } ] in
  let drivers, world = make_drivers plan in
  let primary, primary_world = make_drivers [] in
  let dt = 0.004 in
  let served = ref 0 in
  for i = 1 to 125 do
    let time = float_of_int i *. dt in
    Drivers.sample drivers world ~time;
    Drivers.sample primary primary_world ~time;
    match Drivers.fresh drivers Sensor.Gps with
    | Some r when time > 0.1 ->
      incr served;
      Alcotest.(check bool) "not the primary's reading" false
        (Drivers.fresh primary Sensor.Gps = Some r)
    | Some _ | None -> ()
  done;
  Alcotest.(check bool) "not lost" true
    (Drivers.kind_failed_at drivers Sensor.Gps = None);
  Alcotest.(check bool) "backup still serving" true (!served > 0)

let test_drivers_kind_loss () =
  let plan =
    List.init 2 (fun index ->
        { Avis_hinj.Hinj.sensor = { Sensor.kind = Sensor.Gps; index }; at = 0.1 })
  in
  let drivers, world = make_drivers plan in
  sample_until drivers world 0.5;
  Alcotest.(check bool) "loss time recorded" true
    (match Drivers.kind_failed_at drivers Sensor.Gps with
     | Some at -> at >= 0.1 && at <= 0.5
     | None -> false);
  Alcotest.(check bool) "no fresh reading" true
    (Drivers.fresh drivers Sensor.Gps = None);
  Alcotest.(check bool) "stale reading kept" true
    (Drivers.stale drivers Sensor.Gps <> None)

(* Failsafe decision table *)

let directives_for ?(bugs = Bug.registry ~enabled:[])
    ?(policy = Policy.apm) ?(transitions = [ (2.0, Phase.Preflight, Phase.Takeoff) ])
    ?(phase = Phase.Takeoff) ?gcs_lost_at ?(params = params) plan time =
  let drivers, world = make_drivers plan in
  sample_until drivers world time;
  let ctx =
    { Failsafe.phase; phase_entered_at = 2.0; transitions; time;
      gcs_lost_at }
  in
  Failsafe.evaluate ~policy ~params ~bugs ~drivers ~ctx ~battery_low:false

let fail_kind ?(n = 2) kind at =
  List.init n (fun index -> { Avis_hinj.Hinj.sensor = { Sensor.kind; index }; at })

let test_failsafe_no_failures () =
  let d = directives_for [] 1.0 in
  Alcotest.(check bool) "no request" true (d.Failsafe.phase_request = None);
  Alcotest.(check bool) "normal alt" true (d.Failsafe.alt_mode = Estimator.Alt_fused);
  Alcotest.(check bool) "no bugs" true (d.Failsafe.triggered_bugs = [])

(* With nothing lost, the link up and the battery fine, both
   personalities answer with every directive at its default, the PX4
   takeoff gate open, whatever the phase or the enabled bugs. *)
let test_failsafe_nothing_lost_defaults () =
  let expected =
    {
      Failsafe.alt_mode = Estimator.Alt_fused;
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
  in
  List.iter
    (fun (name, policy) ->
      List.iter
        (fun phase ->
          let bugs = Bug.registry ~enabled:Bug.all in
          let d = directives_for ~bugs ~policy ~phase [] 3.0 in
          Alcotest.(check bool)
            (name ^ " " ^ Phase.label phase ^ " defaults")
            true (d = expected))
        [ Phase.Preflight; Phase.Takeoff; Phase.Waypoint 1; Phase.Land ])
    [ ("apm", Policy.apm); ("px4", Policy.px4) ]

let test_failsafe_guarded_baro () =
  let d = directives_for (fail_kind Sensor.Barometer 0.1) 1.0 in
  Alcotest.(check bool) "gps fallback" true (d.Failsafe.alt_mode = Estimator.Alt_gps_fused);
  Alcotest.(check bool) "gentle" true d.Failsafe.gentle_descent

let test_failsafe_flawed_baro_16027 () =
  let bugs = Bug.registry ~enabled:[ Bug.Apm_16027 ] in
  let d = directives_for ~bugs (fail_kind Sensor.Barometer 2.2) 3.0 in
  Alcotest.(check bool) "frozen alt" true (d.Failsafe.alt_mode = Estimator.Alt_frozen);
  Alcotest.(check bool) "triggered" true
    (List.mem Bug.Apm_16027 d.Failsafe.triggered_bugs)

let test_failsafe_flawed_outside_window () =
  (* Same bug enabled, failure far from the Pre-Flight -> Takeoff window:
     the guarded path must run instead. *)
  let bugs = Bug.registry ~enabled:[ Bug.Apm_16027 ] in
  let d =
    directives_for ~bugs
      ~transitions:[ (2.0, Phase.Preflight, Phase.Takeoff); (10.0, Phase.Takeoff, Phase.Waypoint 1) ]
      ~phase:(Phase.Waypoint 1)
      (fail_kind Sensor.Barometer 15.0) 16.0
  in
  Alcotest.(check bool) "guarded fallback" true
    (d.Failsafe.alt_mode = Estimator.Alt_gps_fused);
  Alcotest.(check bool) "not triggered" true (d.Failsafe.triggered_bugs = [])

let test_failsafe_gps_policy_difference () =
  let apm = directives_for ~policy:Policy.apm (fail_kind Sensor.Gps 0.1) 1.0 in
  let px4 = directives_for ~policy:Policy.px4 (fail_kind Sensor.Gps 0.1) 1.0 in
  Alcotest.(check bool) "apm lands" true
    (apm.Failsafe.phase_request = Some Failsafe.Fs_land);
  Alcotest.(check bool) "px4 altitude-holds" true
    (px4.Failsafe.phase_request = Some Failsafe.Fs_altitude_hold);
  Alcotest.(check bool) "dead reckoning" true
    (apm.Failsafe.pos_mode = Estimator.Pos_dead_reckon)

let test_failsafe_battery_without_gps () =
  let d = directives_for (fail_kind ~n:1 Sensor.Battery 0.1) 1.0 in
  Alcotest.(check bool) "rtl" true (d.Failsafe.phase_request = Some Failsafe.Fs_rtl)

let test_failsafe_battery_and_gps_guarded () =
  let plan = fail_kind Sensor.Gps 0.1 @ fail_kind ~n:1 Sensor.Battery 0.2 in
  let d = directives_for plan 1.0 in
  (* Without the 13291 flaw, no position -> land, not RTL. *)
  Alcotest.(check bool) "land wins" true (d.Failsafe.phase_request = Some Failsafe.Fs_land)

let test_failsafe_13291_flawed () =
  let bugs = Bug.registry ~enabled:[ Bug.Px4_13291 ] in
  let transitions =
    [ (2.0, Phase.Preflight, Phase.Takeoff); (10.0, Phase.Takeoff, Phase.Waypoint 1) ]
  in
  let plan = fail_kind Sensor.Gps 12.0 @ fail_kind ~n:1 Sensor.Battery 14.0 in
  let d =
    directives_for ~bugs ~policy:Policy.px4 ~transitions ~phase:(Phase.Waypoint 1)
      plan 15.0
  in
  Alcotest.(check bool) "flawed RTL without position" true
    (d.Failsafe.phase_request = Some Failsafe.Fs_rtl);
  Alcotest.(check bool) "triggered" true
    (List.mem Bug.Px4_13291 d.Failsafe.triggered_bugs)

let test_failsafe_px4_takeoff_gates () =
  let bugs = Bug.registry ~enabled:[ Bug.Px4_17181 ] in
  let d =
    directives_for ~bugs ~policy:Policy.px4 (fail_kind Sensor.Barometer 2.2) 3.0
  in
  Alcotest.(check bool) "no alt source" true (d.Failsafe.alt_mode = Estimator.Alt_none);
  Alcotest.(check bool) "gate closed" false d.Failsafe.takeoff_gate_open;
  (* The ArduPilot personality has no gates. *)
  let bugs_apm = Bug.registry ~enabled:[] in
  let d' = directives_for ~bugs:bugs_apm (fail_kind Sensor.Barometer 2.2) 3.0 in
  Alcotest.(check bool) "apm gate open" true d'.Failsafe.takeoff_gate_open

(* GCS datalink loss: ArduPilot's action is fixed (RTL), PX4 resolves
   NAV_DLL_ACT from the live parameter set every cycle. *)

let test_failsafe_gcs_loss_apm_rtl () =
  let d = directives_for ~gcs_lost_at:8.0 [] 10.0 in
  Alcotest.(check bool) "apm returns to launch" true
    (d.Failsafe.phase_request = Some Failsafe.Fs_rtl);
  (* Healthy link: no request. *)
  let d' = directives_for [] 10.0 in
  Alcotest.(check bool) "healthy link flies on" true
    (d'.Failsafe.phase_request = None)

let test_failsafe_gcs_loss_without_gps_lands () =
  (* Blind RTL is never taken: with the whole GPS kind also lost the RTL
     degrades to a landing, exactly like the battery failsafe. *)
  let d = directives_for ~gcs_lost_at:8.0 (fail_kind Sensor.Gps 0.1) 10.0 in
  Alcotest.(check bool) "land, not blind RTL" true
    (d.Failsafe.phase_request = Some Failsafe.Fs_land)

let test_failsafe_gcs_loss_px4_nav_dll_act () =
  let with_code code =
    directives_for ~policy:Policy.px4
      ~bugs:(Bug.registry ~enabled:[])
      ~gcs_lost_at:8.0
      ~params:{ params with Params.gcs_loss_action_code = code }
      [] 10.0
  in
  Alcotest.(check bool) "default (2) RTL" true
    ((directives_for ~policy:Policy.px4
        ~bugs:(Bug.registry ~enabled:[])
        ~gcs_lost_at:8.0 [] 10.0)
       .Failsafe.phase_request = Some Failsafe.Fs_rtl);
  Alcotest.(check bool) "0 disabled" true
    ((with_code 0.0).Failsafe.phase_request = None);
  Alcotest.(check bool) "1 altitude hold" true
    ((with_code 1.0).Failsafe.phase_request = Some Failsafe.Fs_altitude_hold);
  Alcotest.(check bool) "3 land" true
    ((with_code 3.0).Failsafe.phase_request = Some Failsafe.Fs_land)

(* Estimator yaw cache *)

let bits = Int64.bits_of_float

let fresh_yaw e =
  let _, _, yaw = Quat.to_euler (Estimator.attitude e) in
  yaw

let check_yaw label e =
  Alcotest.(check int64) label (bits (fresh_yaw e)) (bits (Estimator.yaw e))

(* The cached yaw must be the yaw of the current attitude after every
   write: each update, a reset and a decode. The resets run on decoded
   copies at every step, and some of them must move the yaw's last bits
   (a level attitude rebuilt from a tilted one's yaw), or a stale cache
   would go unnoticed. *)
let test_estimator_yaw_cache () =
  let drivers, world = make_drivers [] in
  let e = Estimator.create ~params () in
  check_yaw "created" e;
  let moved = ref 0 in
  for i = 1 to 250 do
    Drivers.sample drivers world ~time:(float_of_int i *. 0.004);
    ignore (Estimator.yaw e);
    Estimator.update e drivers ~dt:0.004;
    check_yaw "updated" e;
    let c =
      Avis_util.Codec.of_string (Estimator.decode ~params)
        (Avis_util.Codec.to_string Estimator.encode e)
    in
    check_yaw "decoded" c;
    let before = Estimator.yaw c in
    Estimator.reset_state c;
    check_yaw "reset" c;
    if bits before <> bits (fresh_yaw c) then incr moved;
    check_yaw "original untouched by the decoded copy's reset" e
  done;
  Alcotest.(check bool) "some reset moved the yaw bits" true (!moved > 0)

(* Control *)

let make_control () =
  Control.create ~params ()

let test_control_idle_zeros () =
  let control = make_control () in
  let est = Estimator.create ~params () in
  let demand =
    { Control.pos_target = None; velocity_ff = Vec3.zero; climb_demand = 0.0;
      yaw_target = 0.0; idle = true; max_speed = None; level_hold = false;
      open_loop_descent = false }
  in
  let out = Control.step control est demand ~dt:0.004 in
  Alcotest.(check bool) "all zero" true (Array.for_all (fun c -> c = 0.0) out)

let test_control_hover_balance () =
  let control = make_control () in
  let est = Estimator.create ~params () in
  let demand = Control.hold_demand ~yaw:0.0 ~pos:Vec3.zero in
  let out = Control.step control est demand ~dt:0.004 in
  let hover = Avis_physics.Airframe.hover_throttle Avis_physics.Airframe.iris in
  Array.iter
    (fun c -> Alcotest.(check bool) "near hover" true (Float.abs (c -. hover) < 0.1))
    out

let test_control_outputs_bounded () =
  let control = make_control () in
  let est = Estimator.create ~params () in
  let demand =
    { (Control.hold_demand ~yaw:2.0 ~pos:(Vec3.make 100.0 100.0 50.0)) with
      Control.climb_demand = 10.0 }
  in
  let out = Control.step control est demand ~dt:0.004 in
  Array.iter
    (fun c -> Alcotest.(check bool) "in [0,1]" true (c >= 0.0 && c <= 1.0))
    out

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "avis_firmware"
    [
      ( "pid",
        [
          Alcotest.test_case "proportional" `Quick test_pid_proportional;
          Alcotest.test_case "integral" `Quick test_pid_integral_accumulates;
          Alcotest.test_case "integral clamp" `Quick test_pid_integral_clamped;
          Alcotest.test_case "output limit" `Quick test_pid_output_limited;
          Alcotest.test_case "reset" `Quick test_pid_reset;
          Alcotest.test_case "rate damping" `Quick test_pid_rate_damping;
        ] );
      ( "phase",
        [
          Alcotest.test_case "patterns" `Quick test_phase_patterns;
          Alcotest.test_case "airborne" `Quick test_phase_airborne;
          q prop_phase_label_roundtrip;
          q prop_phase_code_roundtrip;
        ] );
      ( "bugs",
        [
          Alcotest.test_case "catalogue counts" `Quick test_bug_catalogue_counts;
          Alcotest.test_case "report lookup" `Quick test_bug_report_lookup;
          Alcotest.test_case "registry" `Quick test_bug_registry_defaults;
          Alcotest.test_case "window matching" `Quick test_bug_window_matching;
          Alcotest.test_case "info table" `Quick test_bug_info_table;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "healthy" `Quick test_drivers_healthy;
          Alcotest.test_case "failover" `Quick test_drivers_failover;
          Alcotest.test_case "kind loss" `Quick test_drivers_kind_loss;
        ] );
      ( "failsafe",
        [
          Alcotest.test_case "no failures" `Quick test_failsafe_no_failures;
          Alcotest.test_case "guarded baro" `Quick test_failsafe_guarded_baro;
          Alcotest.test_case "flawed baro (16027)" `Quick test_failsafe_flawed_baro_16027;
          Alcotest.test_case "outside window guarded" `Quick test_failsafe_flawed_outside_window;
          Alcotest.test_case "gps policy difference" `Quick test_failsafe_gps_policy_difference;
          Alcotest.test_case "battery failsafe" `Quick test_failsafe_battery_without_gps;
          Alcotest.test_case "battery+gps guarded" `Quick test_failsafe_battery_and_gps_guarded;
          Alcotest.test_case "13291 flawed" `Quick test_failsafe_13291_flawed;
          Alcotest.test_case "px4 takeoff gates" `Quick test_failsafe_px4_takeoff_gates;
          Alcotest.test_case "gcs loss apm rtl" `Quick test_failsafe_gcs_loss_apm_rtl;
          Alcotest.test_case "gcs loss without gps lands" `Quick
            test_failsafe_gcs_loss_without_gps_lands;
          Alcotest.test_case "gcs loss px4 nav_dll_act" `Quick
            test_failsafe_gcs_loss_px4_nav_dll_act;
          Alcotest.test_case "nothing lost: defaults" `Quick
            test_failsafe_nothing_lost_defaults;
        ] );
      ( "estimator",
        [ Alcotest.test_case "yaw cache" `Quick test_estimator_yaw_cache ] );
      ( "control",
        [
          Alcotest.test_case "idle zeros" `Quick test_control_idle_zeros;
          Alcotest.test_case "hover balance" `Quick test_control_hover_balance;
          Alcotest.test_case "outputs bounded" `Quick test_control_outputs_bounded;
        ] );
    ]
