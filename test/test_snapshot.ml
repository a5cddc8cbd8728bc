(* Snapshot/fork correctness: a snapshot is a deep copy (running the
   original afterwards does not disturb it), a restore is an independent
   bit-identical fork, and the prefix cache built on top is
   outcome-transparent — every cached result equals the cold one, so
   campaigns produce identical results with caching on or off — charges
   its budget no more than its checkpoints really hold, and keeps a faulty
   run's capture only where a stacked scenario can fork. *)

open Avis_sensors
open Avis_firmware
open Avis_sitl
open Avis_core

let fail_kind ?(n = 2) kind at =
  List.init n (fun index -> { Avis_hinj.Hinj.sensor = { Sensor.kind; index }; at })

let sim_config ?(seed = 42) workload policy =
  let base = Sim.default_config policy in
  {
    base with
    Sim.seed;
    max_duration = workload.Workload.nominal_duration +. 60.0;
    environment = workload.Workload.environment ();
  }

let cold_run ?seed ?(plan = []) workload policy =
  let sim = Sim.create ~plan (sim_config ?seed workload policy) in
  let passed = Workload.execute workload sim in
  Sim.outcome sim ~workload_passed:passed

(* Everything observable about a run. Traces are compared sample by sample
   (position, acceleration, mode, timestamps), so "equal" here means
   bit-identical, not merely same verdict. *)
let fingerprint (o : Sim.outcome) =
  ( Trace.samples o.Sim.trace,
    o.Sim.crash,
    o.Sim.fence_breached,
    o.Sim.workload_passed,
    o.Sim.transitions,
    o.Sim.triggered_bugs,
    o.Sim.duration,
    o.Sim.sensor_reads )

let check_same_outcome msg a b =
  Alcotest.(check bool) msg true (fingerprint a = fingerprint b)

let test_same_seed_same_outcome () =
  let plan = fail_kind Sensor.Gps 20.0 in
  let a = cold_run ~plan Workload.quickstart Policy.apm in
  let b = cold_run ~plan Workload.quickstart Policy.apm in
  check_same_outcome "identical replays" a b;
  Alcotest.(check bool) "trace is non-trivial" true
    (Array.length (Trace.samples a.Sim.trace) > 10)

(* Pause a clean run mid-flight, snapshot, substitute a fault plan on
   restore, and finish: the outcome must be bit-identical to simulating the
   faulty run from scratch. *)
let restore_and_finish ~plan ~workload ~snap ~stepper =
  let sim = Sim.restore ~plan ~link_outages:[] snap in
  let st =
    Avis_util.Codec.of_string (Workload.Stepper.decode workload) stepper
  in
  let passed =
    match Workload.Stepper.run st sim ~until:infinity with
    | Workload.Stepper.Done p -> p
    | Workload.Stepper.Running -> false
  in
  Sim.outcome sim ~workload_passed:passed

let paused_clean_run workload policy ~until =
  let sim = Sim.create ~plan:[] (sim_config workload policy) in
  let st = Workload.Stepper.create workload in
  (match Workload.Stepper.run st sim ~until with
  | Workload.Stepper.Running -> ()
  | Workload.Stepper.Done _ -> Alcotest.fail "clean run finished before pause");
  (sim, st)

let test_restore_bit_identical () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let plan = fail_kind Sensor.Gps 20.0 in
  let cold = cold_run ~plan workload policy in
  let sim, st = paused_clean_run workload policy ~until:15.0 in
  Alcotest.(check bool) "paused strictly before 15 s" true (Sim.time sim < 15.0);
  let snap = Sim.snapshot sim in
  let stepper = Avis_util.Codec.to_string Workload.Stepper.encode st in
  let warm = restore_and_finish ~plan ~workload ~snap ~stepper in
  check_same_outcome "restored suffix = cold run" cold warm

let test_snapshot_is_deep () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let plan = fail_kind Sensor.Gyroscope 20.0 in
  let cold = cold_run ~plan workload policy in
  let sim, st = paused_clean_run workload policy ~until:10.0 in
  let snap = Sim.snapshot sim in
  let stepper = Avis_util.Codec.to_string Workload.Stepper.encode st in
  (* Keep running the original to completion: a shallow snapshot would be
     corrupted by the shared mutable state advancing underneath it. *)
  (match Workload.Stepper.run st sim ~until:infinity with
  | Workload.Stepper.Done passed ->
    Alcotest.(check bool) "clean original still passes" true passed
  | Workload.Stepper.Running -> Alcotest.fail "clean run did not finish");
  let warm1 = restore_and_finish ~plan ~workload ~snap ~stepper in
  check_same_outcome "snapshot survives the original running on" cold warm1;
  (* And one snapshot restores any number of times. *)
  let warm2 = restore_and_finish ~plan ~workload ~snap ~stepper in
  check_same_outcome "second restore of the same snapshot" cold warm2

let scen_kind ?(n = 2) kind at =
  Scenario.of_faults
    (List.init n (fun index -> Scenario.sensor_fault { Sensor.kind; index } at))

let test_prefix_cache_transparent () =
  let workload = Workload.auto_box and policy = Policy.apm in
  let make_sim ~scenario =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config workload policy)
  in
  let checkpoint_times = List.init 40 (fun i -> 2.0 *. float_of_int (i + 1)) in
  let cache =
    Prefix_cache.create ~workload ~config:(sim_config workload policy)
      ~checkpoint_times ()
  in
  (* The clean flight comes last, so no clean run precedes the faults: the
     GPS fault at 25 s runs cold, and its pre-fault checkpoints serve the
     later scenarios, the barometer fault at 12.5 s included. *)
  let scenarios =
    [
      scen_kind Sensor.Gps 25.0;
      scen_kind Sensor.Compass 40.0;
      scen_kind ~n:1 Sensor.Barometer 12.5;
      (* A scheduled link outage forks bit-identically too... *)
      Scenario.of_faults [ Scenario.link_loss ~at:25.0 ~duration:10.0 ];
      (* ...including stacked on a sensor fault. *)
      Scenario.of_faults
        [
          Scenario.sensor_fault { Sensor.kind = Sensor.Barometer; index = 0 } 12.5;
          Scenario.link_loss ~at:30.0 ~duration:8.0;
        ];
      (* Earlier than every checkpoint: must fall back to a cold run. *)
      scen_kind ~n:1 Sensor.Gps 0.5;
      Scenario.empty;
    ]
  in
  List.iter
    (fun scenario ->
      let cached = Prefix_cache.execute cache ~scenario in
      let sim = make_sim ~scenario in
      let passed = Workload.execute workload sim in
      let cold = Sim.outcome sim ~workload_passed:passed in
      check_same_outcome "cached = cold" cold cached)
    scenarios;
  let stats = Prefix_cache.stats cache in
  Alcotest.(check int) "served hits" 5 stats.Prefix_cache.hits;
  Alcotest.(check int) "first scenario and early fault miss" 2
    stats.Prefix_cache.misses;
  Alcotest.(check bool) "skipped simulated time" true
    (stats.Prefix_cache.saved_sim_s > 0.0)

(* Satellite regression: the byte budget is a hard ceiling. With a tiny
   budget the cache must evict checkpoints, yet the accounted resident
   bytes may never exceed the budget and every outcome must still equal
   the cold run — eviction costs wall-clock, never correctness. *)
let test_prefix_cache_eviction_bounded () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let make_sim ~scenario =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config workload policy)
  in
  (* Twentieth-second captures: the checkpoints of one 29 s quickstart
     run (each about 2.8 KB, its trace chunks shared) then outgrow the
     smallest budget. *)
  let budget_mb = 1 in
  let cache =
    Prefix_cache.create ~cache_mb:budget_mb ~workload
      ~config:(sim_config workload policy)
      ~checkpoint_times:(List.init 600 (fun i -> 0.05 *. float_of_int (i + 1)))
      ()
  in
  let budget_bytes = budget_mb * 1024 * 1024 in
  let check_resident () =
    let s = Prefix_cache.stats cache in
    Alcotest.(check bool) "resident within budget" true
      (s.Prefix_cache.resident_bytes <= budget_bytes
      && s.Prefix_cache.resident_bytes >= 0)
  in
  check_resident ();
  let scenarios =
    [
      Scenario.empty;
      scen_kind Sensor.Gps 25.0;
      scen_kind Sensor.Compass 40.0;
      scen_kind ~n:1 Sensor.Barometer 12.5;
      (* Repeat: either a hit or a re-simulated cold run post-eviction. *)
      scen_kind Sensor.Gps 25.0;
    ]
  in
  List.iter
    (fun scenario ->
      let cached = Prefix_cache.execute cache ~scenario in
      check_resident ();
      let sim = make_sim ~scenario in
      let passed = Workload.execute workload sim in
      let cold = Sim.outcome sim ~workload_passed:passed in
      check_same_outcome "evicting cache = cold" cold cached)
    scenarios;
  let s = Prefix_cache.stats cache in
  Alcotest.(check bool) "budget forced evictions" true
    (s.Prefix_cache.evictions > 0)

(* The cache charges each checkpoint what it alone holds: its encoded
   strings and its trace snapshot's record. The trace chunks a run and its
   checkpoints share are charged to none of them. So the charge is
   at most the cache's true footprint — the words reachable from it, each
   shared block counted once — and, with the chunks a small share of it,
   at least half of it. Charging each checkpoint everything reachable from
   it would count every shared chunk once per checkpoint and break the
   upper bound. *)
let test_prefix_cache_pricing () =
  let workload = Workload.auto_box and policy = Policy.apm in
  let cache =
    Prefix_cache.create ~workload ~config:(sim_config workload policy)
      ~checkpoint_times:(List.init 60 (fun i -> float_of_int (i + 1)))
      ()
  in
  List.iter
    (fun scenario -> ignore (Prefix_cache.execute cache ~scenario))
    [
      Scenario.empty;
      scen_kind Sensor.Gps 45.0;
      scen_kind ~n:1 Sensor.Barometer 30.0;
      Scenario.of_faults [ Scenario.link_loss ~at:50.0 ~duration:5.0 ];
    ];
  let charged = (Prefix_cache.stats cache).Prefix_cache.resident_bytes in
  let footprint = Obj.reachable_words (Obj.repr cache) * (Sys.word_size / 8) in
  if charged > footprint || 2 * charged < footprint then
    Alcotest.failf "charged %d bytes against a footprint of %d" charged
      footprint

(* [f ()] with tracing on, from an empty trace: its result and the events
   it recorded. *)
let traced f =
  Avis_util.Trace.reset ();
  Avis_util.Trace.set_enabled true;
  let result =
    Fun.protect ~finally:(fun () -> Avis_util.Trace.set_enabled false) f
  in
  let events =
    match
      Avis_util.Json.member "traceEvents" (Avis_util.Trace.to_chrome_json ())
    with
    | Some (Avis_util.Json.List events) -> events
    | _ -> []
  in
  Avis_util.Trace.reset ();
  (result, events)

(* Events of phase [ph] named [name]: ["X"] spans, ["C"] counter samples. *)
let count_events ~ph name events =
  let is field value e =
    Avis_util.Json.member field e = Some (Avis_util.Json.String value)
  in
  List.length (List.filter (fun e -> is "name" name e && is "ph" ph e) events)

let quickstart_targets = List.init 30 (fun i -> float_of_int (i + 1))

let quickstart_cache () =
  let workload = Workload.quickstart and policy = Policy.apm in
  Prefix_cache.create ~workload ~config:(sim_config workload policy)
    ~checkpoint_times:quickstart_targets ()

(* The injection-clock times a run of [scenario] captures at, paused at
   each target as [Prefix_cache.execute] pauses a cold run. *)
let capture_times workload policy ~scenario =
  let sim =
    Sim.create ~plan:(Scenario.to_plan scenario) (sim_config workload policy)
  in
  let st = Workload.Stepper.create workload in
  List.fold_left
    (fun acc until ->
      if Workload.Stepper.reached sim ~until then acc
      else
        match Workload.Stepper.run st sim ~until with
        | Workload.Stepper.Running -> Vehicle.time (Sim.vehicle sim) :: acc
        | Workload.Stepper.Done _ -> acc)
    [] quickstart_targets

let compass_at at =
  Scenario.of_faults
    [ Scenario.sensor_fault { Sensor.kind = Sensor.Compass; index = 1 } at ]

let transitions_after at (o : Sim.outcome) =
  List.filter (fun (tr : Avis_hinj.Hinj.transition) -> tr.Avis_hinj.Hinj.time > at)
    o.Sim.transitions

(* SABRE stacks a new fault set onto a safe run at the mode transitions it
   was seen to make. Such a child forks from its base's last capture before
   that transition — a faulty capture, kept because the run changed mode
   before its next one — and its outcome is still the cold run's. *)
let test_stacked_child_forks_before_transition () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let cache = quickstart_cache () in
  let fault = 5.0 in
  let base = compass_at fault in
  let base_outcome = Prefix_cache.execute cache ~scenario:base in
  let at =
    match transitions_after fault base_outcome with
    | tr :: _ -> tr.Avis_hinj.Hinj.time
    | [] -> Alcotest.fail "the base made no transition after its fault"
  in
  let fork_time =
    List.fold_left Float.max 0.0
      (List.filter (fun c -> c < at) (capture_times workload policy ~scenario:base))
  in
  Alcotest.(check bool) "the base captured between its fault and the transition"
    true (fork_time > fault);
  let child =
    Scenario.of_faults
      (base
      @ List.init 2 (fun index ->
            Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index } at))
  in
  let before = Prefix_cache.stats cache in
  let served = Prefix_cache.execute cache ~scenario:child in
  let after = Prefix_cache.stats cache in
  Alcotest.(check int) "the child is a hit" (before.Prefix_cache.hits + 1)
    after.Prefix_cache.hits;
  Alcotest.(check (float 0.0)) "forked at the base's last capture before it"
    (before.Prefix_cache.saved_sim_s +. fork_time) after.Prefix_cache.saved_sim_s;
  check_same_outcome "child = cold"
    (cold_run ~plan:(Scenario.to_plan child) workload policy)
    served

(* A faulty run files a capture only where a stacked scenario can fork:
   before each of its mode transitions, and at its end. With the clean
   prefix already filed, every checkpoint a faulty run files is faulty, and
   each one samples the [snapshot.bytes] counter. *)
let test_faulty_run_files_before_transitions () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let cache = quickstart_cache () in
  ignore (Prefix_cache.execute cache ~scenario:Scenario.empty : Sim.outcome);
  let filed fault =
    let outcome, events =
      traced (fun () -> Prefix_cache.execute cache ~scenario:(compass_at fault))
    in
    check_same_outcome "cached = cold"
      (cold_run ~plan:(Scenario.to_plan (compass_at fault)) workload policy)
      outcome;
    ( List.length (transitions_after fault outcome),
      count_events ~ph:"C" "snapshot.bytes" events )
  in
  let transitions, n = filed 5.0 in
  Alcotest.(check bool) "transitions after the fault" true (transitions > 0);
  if n < 1 || n > transitions + 1 then
    Alcotest.failf "filed %d faulty checkpoints over %d transitions" n
      transitions;
  (* After the last transition: only the final capture. *)
  let transitions, n = filed 28.5 in
  Alcotest.(check int) "no transition after the late fault" 0 transitions;
  Alcotest.(check int) "the final capture alone" 1 n

(* A served scenario resumes just under the target its checkpoint was taken
   at; it does not capture there again. A scenario served from its own
   final capture takes no capture at all. *)
let test_served_run_skips_its_fork_point () =
  let workload = Workload.quickstart and policy = Policy.apm in
  let cache = quickstart_cache () in
  let scenario = compass_at 5.0 in
  ignore (Prefix_cache.execute cache ~scenario : Sim.outcome);
  let hits = (Prefix_cache.stats cache).Prefix_cache.hits in
  let served, events = traced (fun () -> Prefix_cache.execute cache ~scenario) in
  Alcotest.(check int) "served" (hits + 1) (Prefix_cache.stats cache).Prefix_cache.hits;
  Alcotest.(check int) "no capture" 0 (count_events ~ph:"X" "cache.checkpoint" events);
  check_same_outcome "served = cold"
    (cold_run ~plan:(Scenario.to_plan scenario) workload policy)
    served

let test_campaign_cache_transparent () =
  let base = Campaign.default_config Policy.apm Workload.auto_box in
  let run cached =
    Campaign.run
      { base with Campaign.budget_s = 200.0; prefix_cache = cached }
      ~strategy:(fun ctx -> Sabre.make ctx)
  in
  let off = run false in
  let on = run true in
  Alcotest.(check int) "same simulations" off.Campaign.simulations
    on.Campaign.simulations;
  Alcotest.(check int) "same findings" (Campaign.unsafe_count off)
    (Campaign.unsafe_count on);
  Alcotest.(check (float 1e-9)) "same budget spent" off.Campaign.wall_clock_spent_s
    on.Campaign.wall_clock_spent_s;
  Alcotest.(check bool) "same finding indices" true
    (List.map
       (fun f -> f.Campaign.simulation_index)
       off.Campaign.findings
    = List.map (fun f -> f.Campaign.simulation_index) on.Campaign.findings)

(* Runs [f] with [AVIS_STORE_DIR] naming a fresh temporary directory,
   then restores the variable (an empty value counts as unset) and
   removes the directory. *)
let with_store_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "avis-test-replay-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let saved = Option.value (Sys.getenv_opt "AVIS_STORE_DIR") ~default:"" in
  Unix.putenv "AVIS_STORE_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "AVIS_STORE_DIR" saved;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    f

(* A campaign replayed through the persistent store forks its scenarios
   from the first run's checkpoints; the result must still be identical
   to the cold run. *)
let test_campaign_replay_identical () =
  let base = Campaign.default_config Policy.apm Workload.auto_box in
  let config =
    { base with Campaign.budget_s = 200.0; prefix_cache = true }
  in
  let strategy ctx = Sabre.make ctx in
  let cold =
    Campaign.run
      { config with Campaign.prefix_cache = false }
      ~strategy
  in
  let first, replay =
    with_store_dir (fun () ->
        let first = Campaign.run config ~strategy in
        (first, Campaign.run config ~strategy))
  in
  let check msg (a : Campaign.result) (b : Campaign.result) =
    Alcotest.(check bool)
      msg true
      (a.Campaign.simulations = b.Campaign.simulations
      && Campaign.unsafe_count a = Campaign.unsafe_count b
      && Int64.bits_of_float a.Campaign.wall_clock_spent_s
         = Int64.bits_of_float b.Campaign.wall_clock_spent_s
      && List.map (fun f -> f.Campaign.simulation_index) a.Campaign.findings
         = List.map (fun f -> f.Campaign.simulation_index) b.Campaign.findings)
  in
  check "store-backed first run = cold" cold first;
  check "store-backed replay = cold" cold replay;
  (* The replay really was served from the first run's checkpoints. *)
  match replay.Campaign.cache_stats with
  | Some s ->
    Alcotest.(check bool) "replay served from the store" true
      (s.Prefix_cache.store_hits > 0)
  | None -> Alcotest.fail "cache disabled"

let () =
  Alcotest.run "avis_snapshot"
    [
      ( "snapshot",
        [
          Alcotest.test_case "same seed, same outcome" `Quick
            test_same_seed_same_outcome;
          Alcotest.test_case "restore = cold run" `Quick test_restore_bit_identical;
          Alcotest.test_case "snapshots are deep" `Quick test_snapshot_is_deep;
        ] );
      ( "prefix cache",
        [
          Alcotest.test_case "cache transparent" `Slow test_prefix_cache_transparent;
          Alcotest.test_case "eviction keeps bytes bounded" `Slow
            test_prefix_cache_eviction_bounded;
          Alcotest.test_case "charge within the true footprint" `Slow
            test_prefix_cache_pricing;
          Alcotest.test_case "stacked child forks before the transition" `Slow
            test_stacked_child_forks_before_transition;
          Alcotest.test_case "faulty run files before transitions" `Slow
            test_faulty_run_files_before_transitions;
          Alcotest.test_case "served run skips its fork point" `Slow
            test_served_run_skips_its_fork_point;
          Alcotest.test_case "campaign on/off identical" `Slow
            test_campaign_cache_transparent;
          Alcotest.test_case "campaign replay identical" `Slow
            test_campaign_replay_identical;
        ] );
    ]
