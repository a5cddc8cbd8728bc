(* Tests for avis_sitl: trace recording/padding and the simulation
   harness (provisioning, determinism, the step loop, outcomes). *)

open Avis_geo
open Avis_sitl
open Avis_core

let test_trace_records_at_period () =
  let trace = Trace.create ~period:0.1 () in
  let world = Avis_physics.World.create () in
  for i = 1 to 100 do
    Trace.record trace ~steps:i ~dt:0.01 world ~mode:"Pre-Flight"
  done;
  (* 1 s at 10 Hz -> about 10 samples. *)
  Alcotest.(check bool) "about ten samples" true
    (Trace.length trace >= 9 && Trace.length trace <= 11)

let test_trace_padding () =
  let trace = Trace.create ~period:0.1 () in
  let world = Avis_physics.World.create () in
  Trace.record trace ~steps:0 ~dt:0.01 world ~mode:"A";
  Trace.record trace ~steps:20 ~dt:0.01 world ~mode:"B";
  let last = Trace.nth_padded trace 100 in
  Alcotest.(check string) "padded with final" "B" last.Trace.mode;
  Alcotest.check_raises "nth out of range" (Invalid_argument "Trace.nth: out of range")
    (fun () -> ignore (Trace.nth trace 100))

let test_trace_empty_padding () =
  let trace = Trace.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Trace.nth_padded: empty trace")
    (fun () -> ignore (Trace.nth_padded trace 0))

(* Record every step (period 0) so the indices below are exact. *)
let recorded_trace n =
  let trace = Trace.create ~period:0.0 () in
  let world = Avis_physics.World.create () in
  for i = 1 to n do
    Trace.record trace ~steps:i ~dt:0.01 world
      ~mode:(if i mod 2 = 0 then "Even" else "Odd")
  done;
  trace

(* The columnar store freezes a chunk every 256 records; indices around
   that boundary are where an off-by-one in the chunk arithmetic would
   land, in [nth] or in the column reads. *)
let test_trace_chunk_boundaries () =
  let n = 600 in
  let trace = recorded_trace n in
  Alcotest.(check int) "every record kept" n (Trace.length trace);
  List.iter
    (fun i ->
      let s = Trace.nth trace i in
      let expected = float_of_int (i + 1) *. 0.01 in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "time at %d" i)
        expected s.Trace.time;
      Alcotest.(check string)
        (Printf.sprintf "mode at %d" i)
        (if (i + 1) mod 2 = 0 then "Even" else "Odd")
        s.Trace.mode;
      Alcotest.(check bool)
        (Printf.sprintf "column reads at %d" i)
        true
        (Trace.time trace i = s.Trace.time
        && Trace.pz trace i = s.Trace.position.Vec3.z
        && Trace.az trace i = s.Trace.acceleration.Vec3.z
        && Trace.mode trace i == s.Trace.mode))
    [ 0; 1; 254; 255; 256; 257; 511; 512; n - 1 ]

(* A snapshot must be isolated from the live trace in both directions:
   recording into the original must not leak into the snapshot's shared
   chunks, and restoring must rewind the length. *)
let test_trace_snapshot_isolation () =
  let trace = recorded_trace 300 in
  let snap = Trace.snapshot trace in
  let world = Avis_physics.World.create () in
  for i = 301 to 700 do
    Trace.record trace ~steps:i ~dt:0.01 world ~mode:"After"
  done;
  let restored = Trace.restore snap in
  Alcotest.(check int) "snapshot length preserved" 300 (Trace.length restored);
  Alcotest.(check string) "tail record untouched" "Even"
    (Trace.nth restored 299).Trace.mode;
  Alcotest.(check string) "original kept recording" "After"
    (Trace.nth trace 699).Trace.mode;
  (* And the restored copy can diverge without disturbing the original. *)
  Trace.record restored ~steps:301 ~dt:0.01 world ~mode:"Fork";
  Alcotest.(check string) "fork stays local" "Fork"
    (Trace.nth restored 300).Trace.mode;
  Alcotest.(check string) "original unaffected" "After"
    (Trace.nth trace 300).Trace.mode

(* [length] is O(1) state, not a walk: reading it — warm, on a trace of
   any shape — must not allocate at all. *)
let test_trace_length_allocation_free () =
  let trace = recorded_trace 700 in
  let acc = ref 0 in
  for _ = 1 to 100 do
    acc := !acc + Trace.length trace
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc + Trace.length trace
  done;
  let allocated = Gc.minor_words () -. w0 in
  Alcotest.(check int) "length stable" (700 * 1100) !acc;
  if allocated > 0.0 then
    Alcotest.failf "Trace.length allocated %.0f minor words over 1000 calls"
      allocated

let test_sim_time_advances () =
  let sim = Sim.create (Sim.default_config Avis_firmware.Policy.apm) in
  for _ = 1 to 250 do
    Sim.step sim
  done;
  Alcotest.(check (float 1e-9)) "one second" 1.0 (Sim.time sim);
  Alcotest.(check int) "250 steps" 250 (Sim.steps sim)

let test_sim_duration_cap () =
  let config = { (Sim.default_config Avis_firmware.Policy.apm) with Sim.max_duration = 0.5 } in
  let sim = Sim.create config in
  let reached = Sim.run_until sim (fun s -> Sim.time s > 100.0) in
  Alcotest.(check bool) "predicate not reached" false reached;
  Alcotest.(check bool) "finished at cap" true (Sim.finished sim)

let run_quickstart seed =
  let config =
    { (Sim.default_config Avis_firmware.Policy.apm) with
      Sim.seed; max_duration = 75.0 }
  in
  let sim = Sim.create config in
  let passed = Workload.execute Workload.quickstart sim in
  Sim.outcome sim ~workload_passed:passed

let test_sim_quickstart_passes () =
  let o = run_quickstart 0 in
  Alcotest.(check bool) "passed" true o.Sim.workload_passed;
  Alcotest.(check bool) "no crash" true (o.Sim.crash = None);
  Alcotest.(check bool) "transitions recorded" true (List.length o.Sim.transitions >= 3)

let test_sim_determinism () =
  let a = run_quickstart 3 and b = run_quickstart 3 in
  Alcotest.(check int) "same trace length" (Trace.length a.Sim.trace)
    (Trace.length b.Sim.trace);
  let sa = Trace.samples a.Sim.trace and sb = Trace.samples b.Sim.trace in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool) "same positions" true
        (Vec3.equal_eps ~eps:1e-12 s.Trace.position sb.(i).Trace.position))
    sa

let test_sim_seed_changes_trace () =
  let a = run_quickstart 1 and b = run_quickstart 2 in
  let sa = Trace.samples a.Sim.trace and sb = Trace.samples b.Sim.trace in
  let n = min (Array.length sa) (Array.length sb) in
  let differs = ref false in
  for i = 0 to n - 1 do
    if not (Vec3.equal_eps ~eps:1e-9 sa.(i).Trace.position sb.(i).Trace.position)
    then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_sim_sensor_read_rate () =
  (* The paper's premise: thousands of injection sites per second. *)
  let o = run_quickstart 0 in
  let rate = float_of_int o.Sim.sensor_reads /. o.Sim.duration in
  Alcotest.(check bool) "hundreds of reads per second" true (rate > 400.0)

let test_sim_crash_freezes () =
  (* Injecting a whole-kind gyro failure mid-climb crashes the vehicle and
     freezes the world. *)
  let plan =
    List.init 2 (fun index ->
        { Avis_hinj.Hinj.sensor =
            { Avis_sensors.Sensor.kind = Avis_sensors.Sensor.Gyroscope; index };
          at = 6.0 })
  in
  let config =
    { (Sim.default_config Avis_firmware.Policy.apm) with Sim.max_duration = 75.0 }
  in
  let sim = Sim.create ~plan config in
  let passed = Workload.execute Workload.quickstart sim in
  let o = Sim.outcome sim ~workload_passed:passed in
  Alcotest.(check bool) "did not pass" false o.Sim.workload_passed;
  Alcotest.(check bool) "crashed" true (o.Sim.crash <> None)

(* The firmware's per-step diet, locked: in auto-box cruise (dev
   profile) a full [Sim.step] allocated about 1,240 minor words before
   the driver, sensor, injector, RNG and link reads stopped allocating,
   and about 750 after. It allocates about 560 since the estimator
   caches its yaw, the failsafe answers a healthy cycle with its shared
   defaults, the noise draws and tilt stopped building closures and
   calling polymorphic compares, and the step stopped iterating over
   closures. The ceiling sits between 750 and 560. *)
let step_words_ceiling = 650.0

let test_sim_step_minor_words () =
  let sim = Sim.create (Sim.default_config Avis_firmware.Policy.apm) in
  let stepper = Workload.Stepper.create Workload.auto_box in
  (match Workload.Stepper.run stepper sim ~until:15.0 with
   | Workload.Stepper.Running -> ()
   | Workload.Stepper.Done _ -> Alcotest.fail "auto-box ended before cruise");
  let cruising () =
    match Avis_firmware.Vehicle.phase (Sim.vehicle sim) with
    | Avis_firmware.Phase.Waypoint _ -> true
    | _ -> false
  in
  for _ = 1 to 500 do
    Sim.step sim
  done;
  Alcotest.(check bool) "cruising when measured" true (cruising ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Sim.step sim
  done;
  let per_step = (Gc.minor_words () -. w0) /. 1000.0 in
  Alcotest.(check bool) "still cruising" true (cruising ());
  if per_step > step_words_ceiling then
    Alcotest.failf "Sim.step allocated %.0f minor words per step (ceiling %.0f)"
      per_step step_words_ceiling

let test_outcome_triggered_bugs_clean () =
  let o = run_quickstart 0 in
  Alcotest.(check bool) "no flawed paths in clean flight" true
    (o.Sim.triggered_bugs = [])

let () =
  Alcotest.run "avis_sitl"
    [
      ( "trace",
        [
          Alcotest.test_case "records at period" `Quick test_trace_records_at_period;
          Alcotest.test_case "padding" `Quick test_trace_padding;
          Alcotest.test_case "empty padding" `Quick test_trace_empty_padding;
          Alcotest.test_case "chunk boundaries" `Quick test_trace_chunk_boundaries;
          Alcotest.test_case "snapshot isolation" `Quick test_trace_snapshot_isolation;
          Alcotest.test_case "length allocation-free" `Quick
            test_trace_length_allocation_free;
        ] );
      ( "sim",
        [
          Alcotest.test_case "time advances" `Quick test_sim_time_advances;
          Alcotest.test_case "duration cap" `Quick test_sim_duration_cap;
          Alcotest.test_case "quickstart passes" `Quick test_sim_quickstart_passes;
          Alcotest.test_case "deterministic" `Quick test_sim_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_sim_seed_changes_trace;
          Alcotest.test_case "sensor read rate" `Quick test_sim_sensor_read_rate;
          Alcotest.test_case "crash freezes" `Quick test_sim_crash_freezes;
          Alcotest.test_case "step minor-words ceiling" `Quick
            test_sim_step_minor_words;
          Alcotest.test_case "clean run triggers nothing" `Quick test_outcome_triggered_bugs_clean;
        ] );
    ]
