(* End-to-end tests: golden missions fly cleanly on both firmware
   personalities, the monitor accepts clean runs and rejects each
   reproduced bug's documented scenario, flawed paths stay silent when
   their flags are off, campaigns find bugs, and recorded findings replay
   under different nondeterminism. *)

open Avis_sensors
open Avis_firmware
open Avis_sitl
open Avis_core

let fail_kind ?(n = 2) kind at =
  List.init n (fun index -> { Avis_hinj.Hinj.sensor = { Sensor.kind; index }; at })

let run_workload ?(enabled = []) ?(seed = 0) ?(plan = []) policy workload =
  let base = Sim.default_config policy in
  let config =
    {
      base with
      Sim.seed;
      enabled_bugs = enabled;
      max_duration = workload.Workload.nominal_duration +. 60.0;
      environment = workload.Workload.environment ();
    }
  in
  let sim = Sim.create ~plan config in
  let passed = Workload.execute workload sim in
  Sim.outcome sim ~workload_passed:passed

let transition_time outcome ~to_mode =
  match
    List.find_opt
      (fun tr -> tr.Avis_hinj.Hinj.to_mode = to_mode)
      outcome.Sim.transitions
  with
  | Some tr -> tr.Avis_hinj.Hinj.time
  | None -> Alcotest.fail ("no transition into " ^ to_mode)

let test_golden_runs () =
  List.iter
    (fun policy ->
      List.iter
        (fun workload ->
          let o = run_workload policy workload in
          Alcotest.(check bool)
            (policy.Policy.name ^ "/" ^ workload.Workload.name ^ " passes")
            true
            (o.Sim.workload_passed && o.Sim.crash = None))
        [ Workload.quickstart; Workload.manual_box; Workload.auto_box;
          Workload.fence_mission ])
    [ Policy.apm; Policy.px4 ]

let test_fence_respected () =
  let o = run_workload Policy.apm Workload.fence_mission in
  Alcotest.(check bool) "no breach" false o.Sim.fence_breached;
  Alcotest.(check bool) "fence stop triggered RTL" true
    (List.exists
       (fun tr -> tr.Avis_hinj.Hinj.to_mode = "Return To Launch")
       o.Sim.transitions)

(* Each unknown bug is triggerable by failing its documented sensor inside
   its documented window, and the monitor flags the run. *)
let bug_scenario (golden : Sim.outcome) bug =
  let info = Bug.info bug in
  let w = info.Bug.window in
  let site =
    List.find_map
      (fun tr ->
        let from_phase = Phase.of_label tr.Avis_hinj.Hinj.from_mode in
        let to_phase = Phase.of_label tr.Avis_hinj.Hinj.to_mode in
        match (from_phase, to_phase) with
        | Some f, Some t
          when Phase.matches w.Bug.from_phase f && Phase.matches w.Bug.to_phase t ->
          Some tr.Avis_hinj.Hinj.time
        | _ -> None)
      golden.Sim.transitions
  in
  match site with
  | Some t ->
    let at = t +. Float.min 1.0 (w.Bug.post_s /. 2.0) in
    let plan = fail_kind info.Bug.sensor at in
    (match info.Bug.requires_second_failure with
    | Some kind -> plan @ fail_kind ~n:1 kind (at +. 2.0)
    | None -> plan)
  | None -> Alcotest.fail ("no window site for " ^ info.Bug.report)

(* The first profiling run, the one a cell's search context is built
   from. *)
let golden_of config =
  Campaign.execute_run config ~seed:config.Campaign.seed
    ~scenario:Scenario.empty

let profile_for policy workload =
  let config = Campaign.default_config policy workload in
  let profile, _, _ = Campaign.profile_and_context config in
  (profile, golden_of config)

let apm_profile = lazy (profile_for Policy.apm Workload.auto_box)
let px4_profile = lazy (profile_for Policy.px4 Workload.auto_box)

let check_bug_detected bug =
  let info = Bug.info bug in
  let policy = Policy.of_firmware info.Bug.firmware in
  let profile, golden = Lazy.force (match info.Bug.firmware with
    | Bug.Ardupilot -> apm_profile
    | Bug.Px4 -> px4_profile)
  in
  let plan = bug_scenario golden bug in
  let o =
    run_workload ~enabled:[ bug ] ~seed:1001 ~plan policy Workload.auto_box
  in
  Alcotest.(check bool) (info.Bug.report ^ " flawed path exercised") true
    (List.mem bug o.Sim.triggered_bugs);
  match Monitor.check profile o with
  | Monitor.Unsafe _ -> ()
  | Monitor.Safe -> Alcotest.fail (info.Bug.report ^ " not flagged by the monitor")

let auto_box_bugs =
  (* Bugs whose windows occur in the auto-box mission. APM-4455 needs the
     manual workload and is tested separately. *)
  [
    Bug.Apm_16020; Bug.Apm_16021; Bug.Apm_16027; Bug.Apm_16967; Bug.Apm_16682;
    Bug.Apm_16953; Bug.Px4_17046; Bug.Px4_17057; Bug.Px4_17192; Bug.Px4_17181;
    Bug.Apm_4679; Bug.Apm_5428; Bug.Px4_13291;
  ]

let test_bugs_detected () = List.iter check_bug_detected auto_box_bugs

let test_manual_bug_4455 () =
  let config = Campaign.default_config Policy.apm Workload.manual_box in
  let profile, _, _ = Campaign.profile_and_context config in
  let golden = golden_of config in
  let manual_entry = transition_time golden ~to_mode:"Manual" in
  let plan = fail_kind Sensor.Gps (manual_entry +. 4.0) in
  let o =
    run_workload ~enabled:[ Bug.Apm_4455 ] ~seed:1001 ~plan Policy.apm
      Workload.manual_box
  in
  Alcotest.(check bool) "flawed path" true (List.mem Bug.Apm_4455 o.Sim.triggered_bugs);
  match Monitor.check profile o with
  | Monitor.Unsafe v ->
    Alcotest.(check bool) "fly away or crash" true
      (v.Monitor.symptom = Monitor.Fly_away || v.Monitor.symptom = Monitor.Crash)
  | Monitor.Safe -> Alcotest.fail "4455 not flagged"

let test_guarded_paths_silent () =
  (* With every bug disabled, the same injections must not exercise any
     flawed path. (The runs themselves may still be unsafe for the
     genuinely unrecoverable gyro-pair outages.) *)
  let _, golden = Lazy.force apm_profile in
  List.iter
    (fun bug ->
      let info = Bug.info bug in
      if info.Bug.firmware = Bug.Ardupilot then begin
        let plan = bug_scenario golden bug in
        let o = run_workload ~enabled:[] ~seed:1001 ~plan Policy.apm Workload.auto_box in
        Alcotest.(check bool) (info.Bug.report ^ " stays silent") true
          (o.Sim.triggered_bugs = [])
      end)
    [ Bug.Apm_16020; Bug.Apm_16021; Bug.Apm_16027; Bug.Apm_16682 ]

let test_guarded_baro_flight_is_safe () =
  let profile, golden = Lazy.force apm_profile in
  let takeoff = transition_time golden ~to_mode:"Takeoff" in
  let o =
    run_workload ~enabled:[] ~seed:1001
      ~plan:(fail_kind Sensor.Barometer (takeoff +. 0.1))
      Policy.apm Workload.auto_box
  in
  Alcotest.(check bool) "no crash" true (o.Sim.crash = None);
  match Monitor.check profile o with
  | Monitor.Safe -> ()
  | Monitor.Unsafe v -> Alcotest.fail ("guarded baro flagged: " ^ Monitor.describe v)

let test_single_failures_safe () =
  (* Failing any single primary instance mid-mission fails over and stays
     safe. The battery monitor (no backup) is exempt: its loss is a real
     failsafe. *)
  let profile, _ = Lazy.force apm_profile in
  List.iter
    (fun kind ->
      let plan = [ { Avis_hinj.Hinj.sensor = { Sensor.kind; index = 0 }; at = 12.0 } ] in
      let o = run_workload ~enabled:[] ~seed:1001 ~plan Policy.apm Workload.auto_box in
      match Monitor.check profile o with
      | Monitor.Safe -> ()
      | Monitor.Unsafe v ->
        Alcotest.fail
          (Printf.sprintf "single %s flagged: %s" (Sensor.kind_to_string kind)
             (Monitor.describe v)))
    [ Sensor.Accelerometer; Sensor.Gyroscope; Sensor.Gps; Sensor.Compass;
      Sensor.Barometer ]

let test_campaign_finds_bugs () =
  let config =
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = 1500.0;
    }
  in
  let result = Campaign.run config ~strategy:(fun ctx -> Sabre.make ctx) in
  Alcotest.(check bool) "found unsafe conditions" true
    (Campaign.unsafe_count result >= 3);
  Alcotest.(check bool) "attributed to registered bugs" true
    (Campaign.found_bug result Bug.Apm_16021
    || Campaign.found_bug result Bug.Apm_16027)

let test_campaign_deterministic () =
  let config =
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = 300.0;
    }
  in
  let a = Campaign.run config ~strategy:(fun ctx -> Sabre.make ctx) in
  let b = Campaign.run config ~strategy:(fun ctx -> Sabre.make ctx) in
  Alcotest.(check int) "same simulations" a.Campaign.simulations b.Campaign.simulations;
  Alcotest.(check int) "same findings" (Campaign.unsafe_count a) (Campaign.unsafe_count b)

let test_replay_reproduces () =
  let config =
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = 1200.0;
    }
  in
  let result =
    Campaign.run ~stop_when:(fun _ -> true) config
      ~strategy:(fun ctx -> Sabre.make ctx)
  in
  match result.Campaign.findings with
  | [] -> Alcotest.fail "no finding to replay"
  | finding :: _ ->
    let r =
      Replay.replay ~config ~profile:result.Campaign.profile ~seed:777
        finding.Campaign.report
    in
    Alcotest.(check bool) "reproduced under a new seed" true r.Replay.reproduced

let test_monitor_flags_takeoff_failure_symptom () =
  let config = Campaign.default_config Policy.px4 Workload.auto_box in
  let profile, _, _ = Campaign.profile_and_context config in
  let golden = golden_of config in
  let takeoff = transition_time golden ~to_mode:"Takeoff" in
  let o =
    run_workload ~enabled:[ Bug.Px4_17181 ] ~seed:1001
      ~plan:(fail_kind Sensor.Barometer (takeoff +. 0.1))
      Policy.px4 Workload.auto_box
  in
  match Monitor.check profile o with
  | Monitor.Unsafe v ->
    Alcotest.(check string) "classified as takeoff failure" "Takeoff Failure"
      (Monitor.symptom_to_string v.Monitor.symptom)
  | Monitor.Safe -> Alcotest.fail "17181 not flagged"

let () =
  Alcotest.run "avis_integration"
    [
      ( "golden",
        [
          Alcotest.test_case "all workloads pass" `Slow test_golden_runs;
          Alcotest.test_case "fence respected" `Quick test_fence_respected;
        ] );
      ( "bugs",
        [
          Alcotest.test_case "all auto-box bugs detected" `Slow test_bugs_detected;
          Alcotest.test_case "manual workload bug (4455)" `Quick test_manual_bug_4455;
          Alcotest.test_case "guarded paths silent" `Slow test_guarded_paths_silent;
          Alcotest.test_case "guarded baro safe" `Quick test_guarded_baro_flight_is_safe;
          Alcotest.test_case "single failures safe" `Slow test_single_failures_safe;
          Alcotest.test_case "takeoff-failure symptom" `Quick test_monitor_flags_takeoff_failure_symptom;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "finds bugs" `Slow test_campaign_finds_bugs;
          Alcotest.test_case "deterministic" `Slow test_campaign_deterministic;
          Alcotest.test_case "replay reproduces" `Slow test_replay_reproduces;
        ] );
    ]
