(* Tests for avis_hinj: the clean-failure fault model and the
   mode-transition log. *)

open Avis_sensors
open Avis_hinj

let gps0 = { Sensor.kind = Sensor.Gps; index = 0 }
let gps1 = { Sensor.kind = Sensor.Gps; index = 1 }

let test_healthy_without_plan () =
  let h = Hinj.create () in
  Alcotest.(check bool) "healthy" true
    (Hinj.sensor_read h ~time:1.0 gps0 = Hinj.Healthy)

let test_failure_starts_at_time () =
  let h = Hinj.create ~plan:[ { Hinj.sensor = gps0; at = 5.0 } ] () in
  Alcotest.(check bool) "before" true (Hinj.sensor_read h ~time:4.99 gps0 = Hinj.Healthy);
  Alcotest.(check bool) "at" true (Hinj.sensor_read h ~time:5.0 gps0 = Hinj.Failed);
  Alcotest.(check bool) "after (no recovery)" true
    (Hinj.sensor_read h ~time:100.0 gps0 = Hinj.Failed)

let test_failure_is_per_instance () =
  let h = Hinj.create ~plan:[ { Hinj.sensor = gps0; at = 0.0 } ] () in
  Alcotest.(check bool) "other instance fine" true
    (Hinj.sensor_read h ~time:10.0 gps1 = Hinj.Healthy)

let test_read_count () =
  let h = Hinj.create () in
  for _ = 1 to 7 do
    ignore (Hinj.sensor_read h ~time:0.0 gps0)
  done;
  Alcotest.(check int) "counted" 7 (Hinj.read_count h);
  ignore (Hinj.is_failed h ~time:0.0 gps0);
  Alcotest.(check int) "is_failed does not count" 7 (Hinj.read_count h)

let test_mode_transitions () =
  let h = Hinj.create () in
  Hinj.update_mode h ~time:0.0 "Pre-Flight";
  Hinj.update_mode h ~time:2.0 "Takeoff";
  Hinj.update_mode h ~time:2.5 "Takeoff";
  Hinj.update_mode h ~time:10.0 "Waypoint 1";
  let transitions = Hinj.transitions h in
  Alcotest.(check int) "two transitions" 2 (List.length transitions);
  Alcotest.(check int) "counted" 2 (Hinj.transition_count h);
  Alcotest.(check int) "counted after a round trip" 2
    (Hinj.transition_count
       (Avis_util.Codec.of_string (Hinj.decode ~plan:(Hinj.plan h))
          (Avis_util.Codec.to_string Hinj.encode h)));
  let first = List.hd transitions in
  Alcotest.(check string) "from" "Pre-Flight" first.Hinj.from_mode;
  Alcotest.(check string) "to" "Takeoff" first.Hinj.to_mode;
  Alcotest.(check (float 1e-9)) "time" 2.0 first.Hinj.time

let () =
  Alcotest.run "avis_hinj"
    [
      ( "faults",
        [
          Alcotest.test_case "healthy without plan" `Quick test_healthy_without_plan;
          Alcotest.test_case "failure timing" `Quick test_failure_starts_at_time;
          Alcotest.test_case "per instance" `Quick test_failure_is_per_instance;
          Alcotest.test_case "read count" `Quick test_read_count;
        ] );
      ( "modes",
        [
          Alcotest.test_case "transitions" `Quick test_mode_transitions;
        ] );
    ]
