(* Tests for the extensions beyond the paper's core: the JSON emitter and
   artefact export, the workload builders, the PARAM protocol, and the
   hexacopter airframe. *)

open Avis_util
open Avis_firmware
open Avis_sitl
open Avis_core

(* Json *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.int 42));
  Alcotest.(check string) "float" "1.5" (Json.to_string (Json.Number 1.5));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Number Float.nan))

let test_json_escaping () =
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\nd\""
    (Json.to_string (Json.String "a\"b\\c\nd"))

let test_json_structures () =
  let v =
    Json.Assoc [ ("xs", Json.List [ Json.int 1; Json.int 2 ]); ("ok", Json.Bool false) ]
  in
  Alcotest.(check string) "compact" "{\"xs\":[1,2],\"ok\":false}" (Json.to_string v);
  Alcotest.(check bool) "pretty contains newlines" true
    (String.contains (Json.to_string_pretty v) '\n')

(* Export *)

let run_quickstart () =
  let config =
    { (Sim.default_config Policy.apm) with Sim.max_duration = 75.0 }
  in
  let sim = Sim.create config in
  let passed = Workload.execute Workload.quickstart sim in
  Sim.outcome sim ~workload_passed:passed

let test_export_outcome_json () =
  let o = run_quickstart () in
  let json = Json.to_string (Export.outcome_to_json o) in
  Alcotest.(check bool) "mentions transitions" true
    (String.length json > 200);
  (* A rough well-formedness check: brackets balance. *)
  let count c = String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']')

let test_export_mode_graph_dot () =
  let graph = Mode_graph.build ~transitions:[ [ ("A", "B"); ("B", "C") ] ] in
  let dot = Export.mode_graph_to_dot graph in
  Alcotest.(check bool) "digraph" true (String.length dot > 10);
  Alcotest.(check bool) "edge present" true
    (let needle = "\"A\" -> \"B\"" in
     let rec contains i =
       i + String.length needle <= String.length dot
       && (String.sub dot i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

(* Workload builders *)

let test_polygon_validation () =
  Alcotest.check_raises "two sides"
    (Invalid_argument "Workload_builder: a polygon needs >= 3 sides") (fun () ->
      ignore (Workload_builder.auto_polygon ~sides:2 ~radius:10.0 ~alt:15.0 ()));
  Alcotest.check_raises "bad radius"
    (Invalid_argument "Workload_builder: non-positive radius") (fun () ->
      ignore (Workload_builder.auto_polygon ~sides:3 ~radius:0.0 ~alt:15.0 ()))

let fly_workload (w : Workload.t) =
  let config =
    {
      (Sim.default_config Policy.apm) with
      Sim.max_duration = w.Workload.nominal_duration +. 60.0;
      environment = w.Workload.environment ();
    }
  in
  let sim = Sim.create config in
  let passed = Workload.execute w sim in
  (passed, Sim.outcome sim ~workload_passed:passed)

let test_auto_triangle_flies () =
  let w = Workload_builder.auto_polygon ~sides:3 ~radius:15.0 ~alt:15.0 () in
  let passed, o = fly_workload w in
  Alcotest.(check bool) "passes" true passed;
  (* Takeoff + three waypoint legs + RTL + Land + Disarmed. *)
  Alcotest.(check bool) "visits three waypoints" true
    (List.exists (fun tr -> tr.Avis_hinj.Hinj.to_mode = "Waypoint 3") o.Sim.transitions)

let test_altitude_sweep_flies () =
  let w = Workload_builder.altitude_sweep ~levels:[ 10.0; 20.0; 12.0 ] () in
  let passed, _ = fly_workload w in
  Alcotest.(check bool) "passes" true passed

let test_altitude_sweep_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Workload_builder.altitude_sweep: no levels") (fun () ->
      ignore (Workload_builder.altitude_sweep ~levels:[] ()))

(* PARAM protocol *)

let test_param_registry () =
  Alcotest.(check bool) "has WPNAV_SPEED" true
    (Param_registry.find "WPNAV_SPEED" <> None);
  Alcotest.(check bool) "unknown" true (Param_registry.find "NOPE" = None);
  match Param_registry.apply_set Params.default ~name:"RTL_ALT" ~value:25.0 with
  | Some (p, v) ->
    Alcotest.(check (float 1e-9)) "accepted" 25.0 v;
    Alcotest.(check (float 1e-9)) "applied" 25.0 p.Params.rtl_altitude
  | None -> Alcotest.fail "RTL_ALT missing"

let test_param_clamping () =
  match Param_registry.apply_set Params.default ~name:"WPNAV_SPEED" ~value:99.0 with
  | Some (_, v) -> Alcotest.(check (float 1e-9)) "clamped to max" 5.0 v
  | None -> Alcotest.fail "WPNAV_SPEED missing"

let test_param_roundtrip_over_link () =
  let config = { (Sim.default_config Policy.apm) with Sim.max_duration = 30.0 } in
  let sim = Sim.create config in
  let gcs = Sim.gcs sim in
  ignore (Sim.run_until sim (fun s -> Sim.time s >= 0.5));
  Avis_mavlink.Gcs.set_param gcs ~name:"RTL_ALT" ~value:30.0;
  ignore
    (Sim.run_until sim (fun s ->
         ignore (Avis_mavlink.Gcs.poll (Sim.gcs s));
         Avis_mavlink.Gcs.param (Sim.gcs s) "RTL_ALT" <> None
         || Sim.time s > 5.0));
  Alcotest.(check (option (float 1e-4))) "echoed" (Some 30.0)
    (Avis_mavlink.Gcs.param gcs "RTL_ALT");
  (* And the whole table. *)
  Avis_mavlink.Gcs.request_param_list gcs;
  ignore
    (Sim.run_until sim (fun s ->
         ignore (Avis_mavlink.Gcs.poll (Sim.gcs s));
         List.length (Avis_mavlink.Gcs.params (Sim.gcs s)) >= Param_registry.count
         || Sim.time s > 10.0));
  Alcotest.(check int) "full table" Param_registry.count
    (List.length (Avis_mavlink.Gcs.params gcs))

(* A PARAM_SET of WPNAV_SPEED must reach the controller, not only the
   echoed parameter table: fly auto-box, optionally setting it to 2 m/s
   over the link 1 s in, and return the peak true horizontal speed seen in
   waypoint legs, the verdict and the echoed value. *)
let auto_box_leg_speed ?wpnav_speed () =
  let w = Workload.auto_box in
  let config =
    {
      (Sim.default_config Policy.apm) with
      Sim.max_duration = w.Workload.nominal_duration +. 60.0;
      environment = w.Workload.environment ();
    }
  in
  let sim = Sim.create config in
  let stepper = Workload.Stepper.create w in
  (match Workload.Stepper.run stepper sim ~until:1.0 with
   | Workload.Stepper.Running -> ()
   | Workload.Stepper.Done _ -> Alcotest.fail "auto-box ended before 1 s");
  Option.iter
    (fun value ->
      Avis_mavlink.Gcs.set_param (Sim.gcs sim) ~name:"WPNAV_SPEED" ~value)
    wpnav_speed;
  let peak = ref 0.0 in
  let rec fly until =
    let status = Workload.Stepper.run stepper sim ~until in
    (match Vehicle.phase (Sim.vehicle sim) with
     | Phase.Waypoint _ ->
       let v =
         Avis_physics.Rigid_body.velocity_v
           (Avis_physics.World.body (Sim.world sim))
       in
       peak := Float.max !peak (Avis_geo.Vec3.norm (Avis_geo.Vec3.horizontal v))
     | _ -> ());
    match status with
    | Workload.Stepper.Running -> fly (until +. 0.02)
    | Workload.Stepper.Done passed -> passed
  in
  let passed = fly 1.02 in
  (!peak, passed, Avis_mavlink.Gcs.param (Sim.gcs sim) "WPNAV_SPEED")

let test_param_wpnav_speed_flies () =
  (* Peak leg speeds: about 7.6 m/s at the default 5 m/s cruise, about
     3.0 m/s at 2 m/s; the bound sits between them. *)
  let bound = 3.5 in
  let default_peak, default_passed, _ = auto_box_leg_speed () in
  Alcotest.(check bool) "default run passes" true default_passed;
  Alcotest.(check bool)
    (Printf.sprintf "default peak %.2f m/s above %.1f" default_peak bound)
    true (default_peak > bound);
  let slow_peak, _, echoed = auto_box_leg_speed ~wpnav_speed:2.0 () in
  Alcotest.(check (option (float 1e-4))) "echoed" (Some 2.0) echoed;
  Alcotest.(check bool)
    (Printf.sprintf "peak %.2f m/s under %.1f" slow_peak bound)
    true (slow_peak < bound)

(* Hexacopter *)

let test_hexa_layout () =
  let layout = Avis_physics.Motor.mix_layout Avis_physics.Airframe.hexa in
  Alcotest.(check int) "six motors" 6 (Array.length layout);
  let spin_sum = Array.fold_left (fun acc (_, s) -> acc +. s) 0.0 layout in
  Alcotest.(check (float 1e-9)) "balanced spins" 0.0 spin_sum

let test_airframe_lookup () =
  Alcotest.(check bool) "iris" true (Avis_physics.Airframe.by_name "3DR Iris" <> None);
  Alcotest.(check bool) "hexa" true (Avis_physics.Airframe.by_name "Hexa 550" <> None);
  Alcotest.(check bool) "unknown" true (Avis_physics.Airframe.by_name "X" = None)

let test_hexa_flies_quickstart () =
  let config =
    {
      (Sim.default_config Policy.apm) with
      Sim.max_duration = 75.0;
      airframe = Avis_physics.Airframe.hexa;
    }
  in
  let sim = Sim.create config in
  let passed = Workload.execute Workload.quickstart sim in
  Alcotest.(check bool) "hexa passes quickstart" true passed;
  Alcotest.(check bool) "no crash" true
    (not (Avis_physics.World.crashed (Sim.world sim)))

let () =
  Alcotest.run "avis_extensions"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "structures" `Quick test_json_structures;
        ] );
      ( "export",
        [
          Alcotest.test_case "outcome json" `Quick test_export_outcome_json;
          Alcotest.test_case "mode graph dot" `Quick test_export_mode_graph_dot;
        ] );
      ( "workload builders",
        [
          Alcotest.test_case "polygon validation" `Quick test_polygon_validation;
          Alcotest.test_case "auto triangle flies" `Slow test_auto_triangle_flies;
          Alcotest.test_case "altitude sweep flies" `Slow test_altitude_sweep_flies;
          Alcotest.test_case "sweep validation" `Quick test_altitude_sweep_validation;
        ] );
      ( "params",
        [
          Alcotest.test_case "registry" `Quick test_param_registry;
          Alcotest.test_case "clamping" `Quick test_param_clamping;
          Alcotest.test_case "roundtrip over link" `Quick test_param_roundtrip_over_link;
          Alcotest.test_case "WPNAV_SPEED slows the legs" `Quick
            test_param_wpnav_speed_flies;
        ] );
      ( "hexacopter",
        [
          Alcotest.test_case "layout" `Quick test_hexa_layout;
          Alcotest.test_case "airframe lookup" `Quick test_airframe_lookup;
          Alcotest.test_case "flies quickstart" `Quick test_hexa_flies_quickstart;
        ] );
    ]
