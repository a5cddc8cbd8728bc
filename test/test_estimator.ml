(* Focused tests for the estimator's source-selection modes — the layer the
   reproduced bugs manipulate. Each flawed mode's characteristic behaviour
   is pinned down here at the unit level (the physical consequences are
   covered by the integration suite). *)

open Avis_geo
open Avis_sensors
open Avis_firmware

let params = Params.default

(* A lightweight rig: a world held at a fixed state, drivers over a seeded
   suite, and an estimator we can step. *)
type rig = {
  world : Avis_physics.World.t;
  drivers : Drivers.t;
  est : Estimator.t;
  mutable time : float;
}

let make_rig ?(plan = []) ?(position = Vec3.make 0.0 0.0 10.0) () =
  let world = Avis_physics.World.create ~position () in
  let suite = Suite.create ~rng:(Avis_util.Rng.create 11) in
  let hinj = Avis_hinj.Hinj.create ~plan () in
  let drivers = Drivers.create ~params ~suite ~hinj () in
  { world; drivers; est = Estimator.create ~params (); time = 0.0 }

let step_rig rig seconds =
  let dt = 0.004 in
  let steps = int_of_float (seconds /. dt) in
  for _ = 1 to steps do
    rig.time <- rig.time +. dt;
    Drivers.sample rig.drivers rig.world ~time:rig.time;
    Estimator.update rig.est rig.drivers ~dt
  done

let fail_kind ?(n = 2) kind at =
  List.init n (fun index -> { Avis_hinj.Hinj.sensor = { Sensor.kind; index }; at })

let test_converges_to_truth () =
  let rig = make_rig () in
  step_rig rig 5.0;
  Alcotest.(check bool) "altitude near 10" true
    (Float.abs (Estimator.altitude rig.est -. 10.0) < 1.0);
  Alcotest.(check bool) "horizontal near origin" true
    (Vec3.norm (Vec3.horizontal (Estimator.position rig.est)) < 2.0);
  Alcotest.(check bool) "level attitude" true
    (Quat.tilt (Estimator.attitude rig.est) < 0.05)

let test_alt_frozen_stops_updating () =
  let rig = make_rig () in
  step_rig rig 3.0;
  let before = Estimator.altitude rig.est in
  Estimator.set_alt_mode rig.est Estimator.Alt_frozen;
  (* Move the world upward; the frozen estimate must not follow. *)
  Avis_physics.Rigid_body.set_position
    (Avis_physics.World.body rig.world) (Vec3.make 0.0 0.0 50.0);
  step_rig rig 2.0;
  Alcotest.(check (float 1e-6)) "frozen" before (Estimator.altitude rig.est)

let test_alt_fused_tracks_world () =
  let rig = make_rig () in
  step_rig rig 3.0;
  Avis_physics.Rigid_body.set_position
    (Avis_physics.World.body rig.world) (Vec3.make 0.0 0.0 30.0);
  step_rig rig 3.0;
  Alcotest.(check bool) "tracks" true
    (Float.abs (Estimator.altitude rig.est -. 30.0) < 2.0)

let test_alt_gps_raw_kills_climb_rate () =
  let rig = make_rig () in
  step_rig rig 3.0;
  Estimator.set_alt_mode rig.est Estimator.Alt_gps_raw;
  step_rig rig 2.0;
  (* Fig. 1's flawed mode: the climb-rate estimate is stuck at zero. *)
  Alcotest.(check (float 1e-9)) "no rate source" 0.0 (Estimator.climb_rate rig.est);
  Alcotest.(check bool) "altitude still roughly sane" true
    (Float.abs (Estimator.altitude rig.est -. 10.0) < 8.0);
  Alcotest.(check bool) "vertical degraded" true (Estimator.vertical_degraded rig.est)

let test_alt_none_invalidates () =
  let rig = make_rig () in
  Estimator.set_alt_mode rig.est Estimator.Alt_none;
  Alcotest.(check bool) "invalid" false (Estimator.alt_valid rig.est);
  Estimator.set_alt_mode rig.est Estimator.Alt_fused;
  Alcotest.(check bool) "valid again" true (Estimator.alt_valid rig.est)

let test_att_frozen () =
  let rig = make_rig () in
  step_rig rig 2.0;
  Estimator.set_att_mode rig.est Estimator.Att_frozen;
  let before = Estimator.attitude rig.est in
  Avis_physics.Rigid_body.set_attitude
    (Avis_physics.World.body rig.world)
    (Quat.of_euler ~roll:0.5 ~pitch:0.0 ~yaw:0.0);
  step_rig rig 1.0;
  Alcotest.(check (float 1e-6)) "attitude frozen" 0.0
    (Quat.angle_between before (Estimator.attitude rig.est))

let test_yaw_stale_compass_pins_heading () =
  (* Fail the compass, physically yaw the vehicle, and check the flawed
     stale-compass mode pins the estimate at the old heading while the
     guarded gyro-only mode follows the turn. *)
  let run mode =
    let rig = make_rig ~plan:(fail_kind Sensor.Compass 2.0) () in
    step_rig rig 3.0;
    Estimator.set_yaw_mode rig.est mode;
    (* Rotate the true vehicle by 0.8 rad over a second; the gyro sees it. *)
    Avis_physics.Rigid_body.set_angular_velocity
      (Avis_physics.World.body rig.world) (Vec3.make 0.0 0.0 0.8);
    step_rig rig 1.0;
    Avis_physics.Rigid_body.set_angular_velocity
      (Avis_physics.World.body rig.world) Vec3.zero;
    step_rig rig 4.0;
    Estimator.yaw rig.est
  in
  let gyro_only = run Estimator.Yaw_gyro_only in
  let stale = run Estimator.Yaw_stale_compass in
  Alcotest.(check bool) "gyro-only follows the turn" true (gyro_only > 0.5);
  Alcotest.(check bool) "stale compass pins at zero" true (Float.abs stale < 0.25)

let test_yaw_flipped_diverges () =
  let rig = make_rig ~plan:(fail_kind Sensor.Compass 2.0) () in
  step_rig rig 3.0;
  Estimator.set_yaw_mode rig.est Estimator.Yaw_flipped;
  (* Nudge the estimate away from the stale heading; the flipped correction
     must amplify the error instead of closing it. *)
  Avis_physics.Rigid_body.set_angular_velocity
    (Avis_physics.World.body rig.world) (Vec3.make 0.0 0.0 0.3);
  step_rig rig 1.0;
  Avis_physics.Rigid_body.set_angular_velocity
    (Avis_physics.World.body rig.world) Vec3.zero;
  let early = Float.abs (Estimator.yaw rig.est) in
  step_rig rig 1.0;
  let late = Float.abs (Estimator.yaw rig.est) in
  (* The flipped correction amplifies the error exponentially (before it
     wraps at pi). *)
  Alcotest.(check bool) "error grows" true (late > early +. 0.2 && late > 0.8)

let test_pos_dead_reckon_drifts () =
  let rig = make_rig ~plan:(fail_kind Sensor.Gps 2.0) () in
  step_rig rig 3.0;
  Estimator.set_pos_mode rig.est Estimator.Pos_dead_reckon;
  step_rig rig 20.0;
  let drift = Vec3.norm (Vec3.horizontal (Estimator.position rig.est)) in
  (* Accelerometer bias integrates quadratically: visible but bounded. *)
  Alcotest.(check bool) "some drift accumulates" true (drift > 0.05);
  Alcotest.(check bool) "drift stays finite" true (drift < 100.0)

let test_dead_reckon_age () =
  let rig = make_rig () in
  step_rig rig 1.0;
  Alcotest.(check (float 1e-6)) "zero with gps" 0.0 (Estimator.dead_reckon_age rig.est);
  Estimator.set_pos_mode rig.est Estimator.Pos_dead_reckon;
  step_rig rig 2.0;
  Alcotest.(check bool) "age counts up" true
    (Float.abs (Estimator.dead_reckon_age rig.est -. 2.0) < 0.05);
  Estimator.set_pos_mode rig.est Estimator.Pos_gps;
  step_rig rig 0.1;
  Alcotest.(check (float 1e-6)) "reset on recovery" 0.0
    (Estimator.dead_reckon_age rig.est)

let test_reset_state () =
  let rig = make_rig () in
  step_rig rig 3.0;
  Estimator.reset_state rig.est;
  Alcotest.(check bool) "position zeroed" true
    (Vec3.norm (Estimator.position rig.est) < 1e-9);
  Alcotest.(check bool) "velocity zeroed" true
    (Vec3.norm (Estimator.velocity rig.est) < 1e-9)

let test_heading_validity_flag () =
  let rig = make_rig () in
  Estimator.set_heading_valid rig.est false;
  Alcotest.(check bool) "cleared" false (Estimator.heading_valid rig.est);
  (* A fresh compass correction restores it. *)
  step_rig rig 0.5;
  Alcotest.(check bool) "restored by compass" true (Estimator.heading_valid rig.est)

let () =
  Alcotest.run "avis_estimator"
    [
      ( "sources",
        [
          Alcotest.test_case "converges" `Quick test_converges_to_truth;
          Alcotest.test_case "alt frozen" `Quick test_alt_frozen_stops_updating;
          Alcotest.test_case "alt fused tracks" `Quick test_alt_fused_tracks_world;
          Alcotest.test_case "alt gps raw" `Quick test_alt_gps_raw_kills_climb_rate;
          Alcotest.test_case "alt none" `Quick test_alt_none_invalidates;
          Alcotest.test_case "att frozen" `Quick test_att_frozen;
          Alcotest.test_case "stale compass pins" `Quick test_yaw_stale_compass_pins_heading;
          Alcotest.test_case "flipped yaw diverges" `Quick test_yaw_flipped_diverges;
          Alcotest.test_case "dead reckoning drifts" `Quick test_pos_dead_reckon_drifts;
          Alcotest.test_case "dead reckon age" `Quick test_dead_reckon_age;
          Alcotest.test_case "reset state" `Quick test_reset_state;
          Alcotest.test_case "heading validity" `Quick test_heading_validity_flag;
        ] );
    ]
