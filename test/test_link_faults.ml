(* End-to-end tests for the datalink-outage fault model: GCS-loss failsafes
   fire per personality at mode boundaries, stacked link+sensor scenarios
   become monitor findings attributed to the GCS-loss transition, workloads
   ride out a brief outage through retransmission, and a dead link fails
   cleanly via transaction timeouts. *)

open Avis_sensors
open Avis_firmware
open Avis_mavlink
open Avis_sitl
open Avis_core

let rtl_label = Phase.label Phase.Rtl
let land_label = Phase.label Phase.Land

let sim_config ?(seed = 0) ?(enabled = []) ?max_duration workload policy =
  let base = Sim.default_config policy in
  {
    base with
    Sim.seed;
    enabled_bugs = enabled;
    max_duration =
      (match max_duration with
      | Some d -> d
      | None -> workload.Workload.nominal_duration +. 60.0);
    environment = workload.Workload.environment ();
  }

let run ?seed ?enabled ?max_duration ?(scenario = Scenario.empty) workload
    policy =
  let sim =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config ?seed ?enabled ?max_duration workload policy)
  in
  let passed = Workload.execute workload sim in
  (sim, Sim.outcome sim ~workload_passed:passed)

let transition_into (o : Sim.outcome) ~to_mode =
  match
    List.find_opt (fun tr -> tr.Avis_hinj.Hinj.to_mode = to_mode) o.Sim.transitions
  with
  | Some tr -> tr
  | None -> Alcotest.fail ("no transition into " ^ to_mode)

let fingerprint (o : Sim.outcome) =
  ( Trace.samples o.Sim.trace,
    o.Sim.crash,
    o.Sim.fence_breached,
    o.Sim.workload_passed,
    o.Sim.transitions,
    o.Sim.triggered_bugs,
    o.Sim.duration,
    o.Sim.sensor_reads )

let profile_for policy workload =
  let profile, _, _ =
    Campaign.profile_and_context (Campaign.default_config policy workload)
  in
  profile

let apm_profile = lazy (profile_for Policy.apm Workload.auto_box)
let px4_profile = lazy (profile_for Policy.px4 Workload.auto_box)

(* A scheduled outage starting mid-mission; the heartbeat timeout expires
   about [gcs_timeout_s] after the last beat received before the window. *)
let outage = Scenario.of_faults [ Scenario.link_loss ~at:12.0 ~duration:120.0 ]

(* The GCS-loss failsafe: once heartbeats have been silent past the
   timeout, both personalities (ArduPilot fixed, PX4 via the default
   NAV_DLL_ACT=2) return to launch — well before the mission's organic
   RTL at ~29 s, and from a waypoint mode, i.e. a new mode boundary for
   the search to target. *)
let test_gcs_loss_triggers_rtl () =
  List.iter
    (fun policy ->
      let _, o =
        run ~max_duration:45.0 ~scenario:outage Workload.auto_box policy
      in
      let tr = transition_into o ~to_mode:rtl_label in
      Alcotest.(check bool)
        (policy.Policy.name ^ " failsafe RTL after the heartbeat timeout")
        true
        (tr.Avis_hinj.Hinj.time > 13.0 && tr.Avis_hinj.Hinj.time < 22.0);
      Alcotest.(check bool)
        (policy.Policy.name ^ " RTL leaves a waypoint mode")
        true
        (String.length tr.Avis_hinj.Hinj.from_mode >= 8
        && String.sub tr.Avis_hinj.Hinj.from_mode 0 8 = "Waypoint"))
    [ Policy.apm; Policy.px4 ]

(* Two-phase stacked finding: phase 1 observes the failsafe transitions a
   link outage produces; phase 2 stacks a whole-kind gyroscope fault on the
   observed boundary, inside a reproduced bug's trigger window that only
   exists because of the GCS loss. The monitor must flag the run, the
   report must attribute the sensor fault to the failsafe-induced mode,
   and the prefix cache must serve the scenario bit-identically. *)
let stacked_gcs_loss_finding policy bug ~boundary ~offset ~check_cache =
  let profile =
    Lazy.force
      (match (Bug.info bug).Bug.firmware with
      | Bug.Ardupilot -> apm_profile
      | Bug.Px4 -> px4_profile)
  in
  (* Phase 1: outage only. *)
  let _, o1 = run ~max_duration:50.0 ~scenario:outage Workload.auto_box policy in
  let tr = transition_into o1 ~to_mode:boundary in
  let at = tr.Avis_hinj.Hinj.time +. offset in
  (* Phase 2: stack the gyro outage on the observed boundary. *)
  let scenario =
    Scenario.of_faults
      (Scenario.link_loss ~at:12.0 ~duration:120.0
      :: List.map
           (fun index ->
             Scenario.sensor_fault { Sensor.kind = Sensor.Gyroscope; index } at)
           [ 0; 1 ])
  in
  let _, o2 = run ~enabled:[ bug ] ~scenario Workload.auto_box policy in
  Alcotest.(check bool) ((Bug.info bug).Bug.report ^ " flawed path exercised")
    true
    (List.mem bug o2.Sim.triggered_bugs);
  let violation =
    match Monitor.check profile o2 with
    | Monitor.Unsafe v -> v
    | Monitor.Safe ->
      Alcotest.fail ((Bug.info bug).Bug.report ^ " not flagged by the monitor")
  in
  let report = Report.make o2 scenario violation in
  (* The link outage and the gyro fault are each attributed to the mode
     the vehicle was actually flying — the gyro fault to the mode the
     GCS-loss failsafe put it in, not to the clean mission's timeline. *)
  Alcotest.(check bool) "link outage in the report" true
    (List.exists
       (fun rf -> rf.Report.subject = Report.Subject_link 120.0)
       report.Report.relative_faults);
  List.iter
    (fun rf ->
      match rf.Report.subject with
      | Report.Subject_sensor _ ->
        Alcotest.(check string) "gyro fault attributed to the failsafe mode"
          boundary rf.Report.mode
      | Report.Subject_link _ -> ())
    report.Report.relative_faults;
  if check_cache then begin
    let cache =
      Prefix_cache.create ~workload:Workload.auto_box
        ~config:(sim_config ~enabled:[ bug ] Workload.auto_box policy)
        ~checkpoint_times:(List.init 40 (fun i -> 2.0 *. float_of_int (i + 1)))
        ()
    in
    let first = Prefix_cache.execute cache ~scenario in
    let second = Prefix_cache.execute cache ~scenario in
    Alcotest.(check bool) "cold = cached finding, bit-identical" true
      (fingerprint o2 = fingerprint first
      && fingerprint o2 = fingerprint second);
    let stats = Prefix_cache.stats cache in
    Alcotest.(check bool) "second execution served from a snapshot" true
      (stats.Prefix_cache.hits >= 1)
  end

let test_gcs_loss_finding_apm () =
  (* APM-16953: gyro loss entering Land. The early Land entry only exists
     because the GCS-loss failsafe cut the mission short. *)
  stacked_gcs_loss_finding Policy.apm Bug.Apm_16953 ~boundary:land_label
    ~offset:0.5 ~check_cache:true

let test_gcs_loss_finding_px4 () =
  (* PX4-17046: gyro loss at RTL entry from a waypoint — here the RTL is
     the NAV_DLL_ACT failsafe itself. *)
  stacked_gcs_loss_finding Policy.px4 Bug.Px4_17046 ~boundary:rtl_label
    ~offset:0.5 ~check_cache:false

(* The acceptance criterion end to end: a campaign over the link-outage
   scenario space (SABRE gated to scenarios carrying an outage) finds a
   GCS-loss-related finding on each personality, identically with the
   prefix cache on and off. *)
let test_campaign_finds_link_finding () =
  List.iter
    (fun policy ->
      let config cached =
        {
          (Campaign.default_config policy Workload.auto_box) with
          Campaign.budget_s = 7200.0;
          prefix_cache = cached;
        }
      in
      let link_finding f =
        Scenario.has_link_loss f.Campaign.report.Report.scenario
      in
      let gate s = (0.0, Scenario.has_link_loss s) in
      let campaign cached =
        Campaign.run ~stop_when:link_finding (config cached)
          ~strategy:(fun ctx -> Sabre.make ~gate ctx)
      in
      let cold = campaign false in
      let cached = campaign true in
      Alcotest.(check bool)
        (policy.Policy.name ^ " campaign finds a link-loss finding") true
        (List.exists link_finding cold.Campaign.findings);
      Alcotest.(check bool) (policy.Policy.name ^ " cache on/off identical")
        true
        (cold.Campaign.simulations = cached.Campaign.simulations
        && Campaign.unsafe_count cold = Campaign.unsafe_count cached
        && cold.Campaign.wall_clock_spent_s
           = cached.Campaign.wall_clock_spent_s
        && List.map
             (fun f -> f.Campaign.simulation_index)
             cold.Campaign.findings
           = List.map
               (fun f -> f.Campaign.simulation_index)
               cached.Campaign.findings))
    [ Policy.apm; Policy.px4 ]

(* A brief outage over the mission upload, which auto-box starts at 2 s:
   the GCS must retransmit the upload traffic the outage drops once the
   link returns, so the transaction completes instead of timing out. *)
let test_lossy_link_workload_completes () =
  let lossy = Scenario.of_faults [ Scenario.link_loss ~at:2.0 ~duration:0.5 ] in
  List.iter
    (fun seed ->
      let sim, o = run ~seed ~scenario:lossy Workload.auto_box Policy.apm in
      Alcotest.(check bool)
        (Printf.sprintf "workload passes despite losses (seed %d)" seed)
        true o.Sim.workload_passed;
      Alcotest.(check bool) "the link really was lossy" true
        (Link.dropped (Sim.link sim) > 0))
    [ 0; 1 ]

(* A dead link: the upload exhausts its retransmission budget and the
   workload fails promptly via Upload_timed_out, long before the
   simulation cap. *)
let test_dead_link_fails_cleanly () =
  let dead = Scenario.of_faults [ Scenario.link_loss ~at:0.0 ~duration:1.0e9 ] in
  let sim, o = run ~scenario:dead Workload.auto_box Policy.apm in
  Alcotest.(check bool) "workload fails" false o.Sim.workload_passed;
  Alcotest.(check bool) "upload gave up" true
    (Gcs.upload_state (Sim.gcs sim) = Gcs.Upload_timed_out);
  Alcotest.(check bool) "failed at the transaction timeout, not the cap" true
    (o.Sim.duration < 30.0)

let () =
  Alcotest.run "avis_link_faults"
    [
      ( "gcs loss",
        [
          Alcotest.test_case "failsafe RTL per personality" `Slow
            test_gcs_loss_triggers_rtl;
          Alcotest.test_case "stacked finding (apm, cached)" `Slow
            test_gcs_loss_finding_apm;
          Alcotest.test_case "stacked finding (px4)" `Slow
            test_gcs_loss_finding_px4;
          Alcotest.test_case "campaign finds link findings" `Slow
            test_campaign_finds_link_finding;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "lossy link retries to completion" `Slow
            test_lossy_link_workload_completes;
          Alcotest.test_case "dead link fails cleanly" `Slow
            test_dead_link_fails_cleanly;
        ] );
    ]
