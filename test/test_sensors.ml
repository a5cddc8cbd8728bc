(* Tests for avis_sensors: identities, roles, noise channels and the
   vehicle's sensor suite. *)

open Avis_geo
open Avis_sensors

let world = Avis_physics.World.create ~position:(Vec3.make 1.0 2.0 10.0) ()

let fresh_suite seed = Suite.create ~rng:(Avis_util.Rng.create seed)

let test_roles () =
  Alcotest.(check bool) "index 0 primary" true
    (Sensor.role_of { Sensor.kind = Sensor.Gps; index = 0 } = Sensor.Primary);
  Alcotest.(check bool) "index 1 backup" true
    (Sensor.role_of { Sensor.kind = Sensor.Gps; index = 1 } = Sensor.Backup)

let test_kind_string_roundtrip () =
  List.iter
    (fun kind ->
      Alcotest.(check bool) "roundtrip" true
        (Sensor.kind_of_string (Sensor.kind_to_string kind) = Some kind))
    Sensor.all_kinds;
  Alcotest.(check bool) "unknown" true (Sensor.kind_of_string "radar" = None)

let test_complement_instances () =
  let ids = Suite.instances in
  Alcotest.(check int) "11 instances" 11 (List.length ids);
  let gps = List.filter (fun i -> i.Sensor.kind = Sensor.Gps) ids in
  Alcotest.(check int) "two gps" 2 (List.length gps)

let test_reading_kinds_match () =
  let suite = fresh_suite 1 in
  List.iter
    (fun id ->
      let reading = Suite.read suite world id in
      Alcotest.(check bool)
        (Sensor.id_to_string id ^ " kind matches") true
        (Sensor.reading_kind reading = id.Sensor.kind))
    Suite.instances

let test_unknown_instance () =
  let suite = fresh_suite 1 in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Suite.read: unknown instance battery[5]") (fun () ->
      ignore (Suite.read suite world { Sensor.kind = Sensor.Battery; index = 5 }))

let test_gps_reads_near_truth () =
  let suite = fresh_suite 2 in
  let sum = ref Vec3.zero in
  let n = 200 in
  for _ = 1 to n do
    match Suite.read suite world { Sensor.kind = Sensor.Gps; index = 0 } with
    | Sensor.Gps_fix { position; _ } -> sum := Vec3.add !sum position
    | _ -> Alcotest.fail "expected gps fix"
  done;
  let mean = Vec3.scale (1.0 /. float_of_int n) !sum in
  Alcotest.(check bool) "horizontal mean near truth" true
    (Vec3.norm (Vec3.horizontal (Vec3.sub mean (Vec3.make 1.0 2.0 0.0))) < 1.5);
  Alcotest.(check bool) "vertical mean within bias range" true
    (Float.abs (mean.Vec3.z -. 10.0) < 5.0)

let test_baro_tracks_altitude () =
  let suite = fresh_suite 3 in
  match Suite.read suite world { Sensor.kind = Sensor.Barometer; index = 0 } with
  | Sensor.Pressure_alt alt ->
    Alcotest.(check bool) "near 10 m" true (Float.abs (alt -. 10.0) < 2.0)
  | _ -> Alcotest.fail "expected pressure altitude"

let test_instances_have_distinct_biases () =
  let suite = fresh_suite 4 in
  let avg index =
    let sum = ref 0.0 in
    for _ = 1 to 500 do
      match Suite.read suite world { Sensor.kind = Sensor.Barometer; index } with
      | Sensor.Pressure_alt alt -> sum := !sum +. alt
      | _ -> ()
    done;
    !sum /. 500.0
  in
  Alcotest.(check bool) "different instances differ" true
    (Float.abs (avg 0 -. avg 1) > 0.01)

let test_suite_determinism () =
  let read_seq seed =
    let suite = Suite.create ~rng:(Avis_util.Rng.create seed) in
    List.init 10 (fun _ ->
        match Suite.read suite world { Sensor.kind = Sensor.Compass; index = 0 } with
        | Sensor.Heading h -> h
        | _ -> nan)
  in
  Alcotest.(check (list (float 1e-12))) "same seed same readings"
    (read_seq 7) (read_seq 7)

let test_battery_discharges () =
  let suite = fresh_suite 5 in
  Alcotest.(check (float 1e-9)) "full at start" 1.0 (Suite.battery_remaining suite);
  for _ = 1 to 2500 do
    Suite.tick suite ~dt:0.004
  done;
  let remaining = Suite.battery_remaining suite in
  Alcotest.(check bool) "drained a little" true (remaining < 1.0 && remaining > 0.9)

let test_battery_reading_tracks_charge () =
  let suite = fresh_suite 6 in
  Suite.drain_battery_to suite 0.5;
  match Suite.read suite world { Sensor.kind = Sensor.Battery; index = 0 } with
  | Sensor.Battery_state { voltage; remaining } ->
    Alcotest.(check (float 1e-9)) "remaining" 0.5 remaining;
    Alcotest.(check bool) "voltage mid-range" true (voltage > 11.0 && voltage < 11.8)
  | _ -> Alcotest.fail "expected battery state"

let test_drain_clamped () =
  let suite = fresh_suite 7 in
  Suite.drain_battery_to suite 2.0;
  Alcotest.(check (float 1e-9)) "clamped to 1" 1.0 (Suite.battery_remaining suite);
  Suite.drain_battery_to suite (-1.0);
  Alcotest.(check (float 1e-9)) "clamped to 0" 0.0 (Suite.battery_remaining suite)

let test_noise_channel_bias_is_stable () =
  let rng = Avis_util.Rng.create 9 in
  let ch = Noise.channel rng Noise.gps_vertical in
  let n = 2000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Noise.sample ch ~dt:0.0 ~truth:0.0
  done;
  let mean1 = !sum /. float_of_int n in
  sum := 0.0;
  for _ = 1 to n do
    sum := !sum +. Noise.sample ch ~dt:0.0 ~truth:0.0
  done;
  let mean2 = !sum /. float_of_int n in
  Alcotest.(check bool) "bias persists" true (Float.abs (mean1 -. mean2) < 0.25)

let () =
  Alcotest.run "avis_sensors"
    [
      ( "sensor",
        [
          Alcotest.test_case "roles" `Quick test_roles;
          Alcotest.test_case "kind strings" `Quick test_kind_string_roundtrip;
        ] );
      ( "suite",
        [
          Alcotest.test_case "complement" `Quick test_complement_instances;
          Alcotest.test_case "reading kinds" `Quick test_reading_kinds_match;
          Alcotest.test_case "unknown instance" `Quick test_unknown_instance;
          Alcotest.test_case "gps near truth" `Quick test_gps_reads_near_truth;
          Alcotest.test_case "baro tracks" `Quick test_baro_tracks_altitude;
          Alcotest.test_case "distinct biases" `Quick test_instances_have_distinct_biases;
          Alcotest.test_case "determinism" `Quick test_suite_determinism;
        ] );
      ( "battery",
        [
          Alcotest.test_case "discharges" `Quick test_battery_discharges;
          Alcotest.test_case "reading tracks charge" `Quick test_battery_reading_tracks_charge;
          Alcotest.test_case "drain clamped" `Quick test_drain_clamped;
        ] );
      ( "noise",
        [ Alcotest.test_case "bias stable" `Quick test_noise_channel_bias_is_stable ] );
    ]
