(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation (§III and §VI), the design-choice ablations called
   out in DESIGN.md, and the link-fault campaigns. Performance is measured
   by perfbench/, not here.

   The campaign budget defaults to 7200 s of modelled wall-clock per
   approach; set AVIS_BUDGET=7200 for the paper's full two hours (the
   comparison shape is the same, the absolute counts grow).

   Campaign cells are independent jobs: the matrix, Table V and the
   search-order ablation all run on a domain pool sized by AVIS_JOBS
   (default: what the hardware recommends). Results are bit-identical to
   AVIS_JOBS=1 because every cell derives its own seed and budget. *)

open Avis_util
open Avis_sensors
open Avis_firmware
open Avis_core

let budget_s = Env.positive_float ~var:"AVIS_BUDGET" ~default:7200.0 ()

let jobs = Pool.jobs_of_env ()

(* AVIS_TRACE=1 records every campaign cell, simulation, cache serve and
   search decision as spans; the run then writes a Chrome-trace JSON
   artefact (open in Perfetto) and prints the per-phase summary. Off by
   default: tracing disabled costs one branch per span site, keeping the
   bench comparable with untraced baselines. *)
let tracing = Trace.enabled_by_env ()

let () = Trace.set_enabled tracing

let trace_path = "BENCH_evaluation.trace.json"

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

(* ------------------------------------------------------------------ *)
(* Campaign matrix: run once, reused by Tables II, III and IV.         *)
(* ------------------------------------------------------------------ *)

let approaches =
  [
    ("Avis", fun ctx -> Sabre.make ctx);
    ("Strat. BFI", fun ctx -> Strat_bfi.make ctx);
    ("BFI", fun ctx -> Bfi.make ctx);
    ("Random", fun ctx -> Random_search.make ctx);
  ]

let policies = [ Policy.apm; Policy.px4 ]

let workloads = [ Workload.manual_box; Workload.auto_box ]

(* A matrix cell keeps its journal record, whether it ran live in this
   process or was served from the resumable run journal (AVIS_JOURNAL)
   written by an earlier, possibly killed, process. The record carries
   exactly what the tables need (counts, the spent ledger's bits, finding
   descriptions/buckets/bug attributions), so every table derives
   identically either way; what it cannot carry is the monitor profile,
   which no table reads. *)
type cell = { policy : Policy.t; approach : string; record : Run_journal.record }

let campaign_matrix =
  lazy
    (let specs =
       List.concat_map
         (fun policy ->
           List.concat_map
             (fun workload ->
               List.map (fun approach -> (policy, workload, approach)) approaches)
             workloads)
         policies
     in
     (* Opened before the pool fans out: Run_journal.open_ reads and
        indexes the file once, and the handle's appends are mutex-held,
        so sharing one handle across domains is safe. *)
     let journal =
       Option.map
         (fun path -> Run_journal.open_ path)
         (Sys.getenv_opt "AVIS_JOURNAL")
     in
     (match journal with
     | Some j ->
       Printf.eprintf "[bench] journal %s: %d completed cell(s) on file\n%!"
         (Run_journal.path j)
         (Run_journal.completed_count j)
     | None -> ());
     Printf.eprintf "[bench] campaign matrix: %d cells on %d domain(s)\n%!"
       (List.length specs) jobs;
     let results =
       Campaign.run_cells ?journal ~jobs
         (List.map
            (fun (policy, workload, (name, strategy)) ->
              ( {
                  (Campaign.default_config policy workload) with
                  Campaign.budget_s;
                  seed =
                    Campaign.cell_seed ~policy:policy.Policy.name
                      ~workload:workload.Workload.name ~approach:name ();
                },
                name,
                strategy ))
            specs)
     in
     let cells =
       List.filter_map
         (fun ((policy, _, (approach, _)), (outcome, _)) ->
           match outcome with
           | Campaign.Live (_, record) | Campaign.Memo record ->
             Some { policy; approach; record }
           | Campaign.Failed _ -> None)
         (List.combine specs results)
     in
     let dropped = List.length specs - List.length cells in
     if dropped > 0 then
       Printf.eprintf
         "[bench] %d quarantined cell(s) excluded from the tables\n%!" dropped;
     Metrics.summary (List.map snd results);
     cells)

(* Every finding of the matrix cells matching the filters, cell by cell. *)
let findings_for ?approach ?policy () =
  List.concat_map
    (fun c ->
      if
        (match approach with Some a -> c.approach = a | None -> true)
        && match policy with Some p -> c.policy == p | None -> true
      then c.record.Run_journal.findings
      else [])
    (Lazy.force campaign_matrix)

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: distinguishing features of the approaches";
  let t =
    Table.create ~header:[ "Features"; "Avis"; "Strat. BFI"; "BFI"; "Rnd" ]
  in
  Table.add_row t
    [ "Targets operating mode transitions"; "yes"; "no"; "no"; "no" ];
  Table.add_row t [ "Prior bugs inform injection sites"; "yes"; "yes"; "yes"; "no" ];
  Table.add_row t [ "Search dissimilar scenarios first"; "yes"; "yes"; "no"; "yes" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 3 (the bug study)                                            *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Figure 3: analysis of reported bugs (215 pruned reports)";
  let open Avis_bugstudy in
  subsection "(A) root causes of crash-causing bugs";
  let t = Table.create ~header:[ "Root cause"; "% of all bugs"; "% of crash bugs" ] in
  List.iter
    (fun cause ->
      Table.add_row t
        [
          Bugstudy.root_cause_to_string cause;
          Printf.sprintf "%.0f%%" (100.0 *. Bugstudy.fraction_by_cause cause);
          Printf.sprintf "%.0f%%" (100.0 *. Bugstudy.crash_fraction_by_cause cause);
        ])
    [ Bugstudy.Semantic; Bugstudy.Sensor_fault; Bugstudy.Memory; Bugstudy.Other ];
  Table.print t;
  subsection "(B) sensor-bug reproducibility";
  Printf.printf "default settings: %.0f%%   special settings: %.0f%%\n"
    (100.0 *. Bugstudy.sensor_default_reproducible_fraction)
    (100.0 *. (1.0 -. Bugstudy.sensor_default_reproducible_fraction));
  subsection "(C) sensor-bug symptoms";
  let t = Table.create ~header:[ "Symptom"; "count"; "share" ] in
  List.iter
    (fun (symptom, n) ->
      Table.add_row t
        [
          Bugstudy.symptom_to_string symptom;
          string_of_int n;
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int n /. 44.0);
        ])
    (Bugstudy.symptom_breakdown Bugstudy.sensor_bugs);
  Table.print t;
  Printf.printf
    "Findings: sensor bugs are %.0f%% of reports but %.0f%% of crash bugs; \
     %.0f%% reproduce under default settings; %.0f%% are serious.\n"
    (100.0 *. Bugstudy.fraction_by_cause Bugstudy.Sensor_fault)
    (100.0 *. Bugstudy.crash_fraction_by_cause Bugstudy.Sensor_fault)
    (100.0 *. Bugstudy.sensor_default_reproducible_fraction)
    (100.0 *. Bugstudy.sensor_serious_fraction)

(* ------------------------------------------------------------------ *)
(* Figure 5 (search orders on the toy fault space)                     *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5: exploration order on the 2-sensor, 5-step example";
  (* Two single-instance sensors, transitions discovered at t1, t2 and t4
     (of t1..t5), exactly as in the figure. *)
  let instances =
    [ { Sensor.kind = Sensor.Gps; index = 0 };
      { Sensor.kind = Sensor.Barometer; index = 0 } ]
  in
  let ctx =
    {
      Search.transitions =
        [ (1.0, "Pre-Flight", "Takeoff"); (2.0, "Takeoff", "Cruise");
          (4.0, "Cruise", "Land") ];
      mission_duration = 5.0;
      instances;
      instances_of_kind = (fun _ -> 1);
      mode_at = (fun _ -> Some "Cruise");
      rng = Rng.create 0;
    }
  in
  let render scenario =
    (* <F1,...,F5> with permanent failures, as in the paper's notation. *)
    let cell t =
      let failed =
        List.filter_map
          (fun f ->
            if Scenario.fault_time f <= t +. 1e-9 then
              Some
                (match f with
                | Scenario.Link_loss _ -> "Link"
                | Scenario.Sensor_fault sf -> (
                  match sf.Scenario.sensor.Sensor.kind with
                  | Sensor.Gps -> "GPS"
                  | Sensor.Barometer -> "Baro"
                  | _ -> "?"))
            else None)
          scenario
      in
      match failed with [] -> "0" | fs -> "{" ^ String.concat "," fs ^ "}"
    in
    "<" ^ String.concat ", " (List.map (fun i -> cell (float_of_int i)) [ 1; 2; 3; 4; 5 ]) ^ ">"
  in
  let first_n searcher n =
    let rec loop acc k =
      if k = 0 then List.rev acc
      else
        match searcher.Search.next () with
        | Search.Exhausted -> List.rev acc
        | Search.Think _ -> loop acc k
        | Search.Run (s, _) ->
          searcher.Search.observe s
            { Search.unsafe = false; observed_transitions = [] };
          loop (render s :: acc) (k - 1)
    in
    loop [] n
  in
  List.iter
    (fun (name, make) ->
      subsection name;
      List.iter print_endline (first_n (make ()) 6))
    [
      ("depth-first search", fun () -> Dfs.make ~site_step_s:1.0 ctx);
      ("breadth-first search", fun () -> Bfs.make ~start_s:1.0 ~site_step_s:1.0 ctx);
      ("SABRE (transitions first)", fun () -> Sabre.make ~shift_s:1.0 ctx);
    ]

(* ------------------------------------------------------------------ *)
(* Figure 6 (sensor-instance symmetry)                                 *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6: sensor-instance symmetry on three compasses";
  let compass i = { Sensor.kind = Sensor.Compass; index = i } in
  let subsets =
    [ [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 0; 1; 2 ] ]
  in
  let prune = Prune.create () in
  let t = Table.create ~header:[ "Failure set"; "decision" ] in
  List.iter
    (fun subset ->
      let scenario =
        Scenario.of_faults
          (List.map (fun i -> Scenario.sensor_fault (compass i) 10.0) subset)
      in
      let name =
        "{"
        ^ String.concat ","
            (List.map (function 0 -> "P" | 1 -> "B1" | i -> "B" ^ string_of_int i) subset)
        ^ "}"
      in
      if Prune.should_prune prune scenario then Table.add_row t [ name; "pruned (symmetry)" ]
      else begin
        Prune.note_run prune scenario;
        Table.add_row t [ name; "run" ]
      end)
    subsets;
  Table.print t;
  let t = Table.create ~header:[ "instances N"; "N(2^N-1)"; "2N-1 (with symmetry)" ] in
  List.iter
    (fun n ->
      Table.add_row t
        [
          string_of_int n;
          string_of_int (Prune.unpruned_scenarios ~instances:n);
          string_of_int (Prune.symmetry_scenarios ~instances:n);
        ])
    [ 1; 2; 3; 4; 5 ];
  Table.print ~title:"scenario counts per site and sensor kind:" t

(* ------------------------------------------------------------------ *)
(* Figures 1, 9, 10 (altitude traces, golden vs fault)                 *)
(* ------------------------------------------------------------------ *)

let fail_kind ?(n = 2) kind at =
  List.init n (fun index -> { Avis_hinj.Hinj.sensor = { Sensor.kind; index }; at })

let run_auto_box policy ~enabled ~plan =
  let base = Avis_sitl.Sim.default_config policy in
  let config =
    {
      base with
      Avis_sitl.Sim.seed = 1001;
      enabled_bugs = enabled;
      max_duration = Workload.auto_box.Workload.nominal_duration +. 60.0;
    }
  in
  let sim = Avis_sitl.Sim.create ~plan config in
  let passed = Workload.execute Workload.auto_box sim in
  Avis_sitl.Sim.outcome sim ~workload_passed:passed

let transition_into (outcome : Avis_sitl.Sim.outcome) to_mode =
  List.find_map
    (fun tr ->
      if tr.Avis_hinj.Hinj.to_mode = to_mode then Some tr.Avis_hinj.Hinj.time
      else None)
    outcome.Avis_sitl.Sim.transitions

let altitude_figure ~title ~bug ~sensor ~window_mode ~offset =
  section title;
  let golden = run_auto_box Policy.apm ~enabled:[] ~plan:[] in
  let site =
    match transition_into golden window_mode with
    | Some t -> t +. offset
    | None -> failwith ("no transition into " ^ window_mode)
  in
  let fault = run_auto_box Policy.apm ~enabled:[ bug ] ~plan:(fail_kind sensor site) in
  Printf.printf "injection: %s at t=%.2f s (%s window); outcome: %s\n"
    (Sensor.kind_to_string sensor) site window_mode
    (match fault.Avis_sitl.Sim.crash with
    | Some e -> Format.asprintf "%a" Avis_physics.World.pp_contact e
    | None -> "no collision (see monitor verdict in Table II runs)");
  let series outcome =
    (* One sample per whole second. *)
    let seen = Hashtbl.create 128 in
    List.filter
      (fun (t, _) ->
        let second = int_of_float t in
        if Hashtbl.mem seen second then false
        else begin
          Hashtbl.add seen second ();
          true
        end)
      (Avis_sitl.Trace.altitude_series outcome.Avis_sitl.Sim.trace)
  in
  let t = Table.create ~header:[ "t (s)"; "golden alt (m)"; "fault alt (m)" ] in
  let golden_series = series golden and fault_series = series fault in
  List.iter
    (fun (time, alt) ->
      let fault_alt =
        List.find_opt (fun (ft, _) -> Float.abs (ft -. time) < 0.3) fault_series
      in
      match fault_alt with
      | Some (_, fa) ->
        Table.add_row t
          [ Printf.sprintf "%.0f" time; Printf.sprintf "%6.2f" alt;
            Printf.sprintf "%6.2f" fa ]
      | None ->
        Table.add_row t
          [ Printf.sprintf "%.0f" time; Printf.sprintf "%6.2f" alt; "(crashed)" ])
    golden_series;
  Table.print t

let fig1 () =
  altitude_figure
    ~title:"Figure 1: IMU failure at the end of landing (APM-16682)"
    ~bug:Bug.Apm_16682 ~sensor:Sensor.Accelerometer ~window_mode:"Land"
    ~offset:1.0

let fig9 () =
  altitude_figure
    ~title:"Figure 9: APM-16021, accelerometer failure late in the climb"
    ~bug:Bug.Apm_16021 ~sensor:Sensor.Accelerometer ~window_mode:"Takeoff"
    ~offset:7.0

let fig10 () =
  altitude_figure
    ~title:"Figure 10: APM-16967, compass failure between waypoints"
    ~bug:Bug.Apm_16967 ~sensor:Sensor.Compass ~window_mode:"Waypoint 2"
    ~offset:0.5

(* ------------------------------------------------------------------ *)
(* Table II                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table II: previously-unknown bugs detected";
  let t =
    Table.create
      ~header:
        [ "Report #"; "Firmware"; "Symptom"; "Sensor Failure";
          "Failure Starting Moment"; "Avis"; "Strat. BFI" ]
  in
  List.iter
    (fun bug ->
      let info = Bug.info bug in
      if not info.Bug.known then begin
        let found approach =
          List.exists
            (fun (f : Run_journal.finding) ->
              List.mem info.Bug.report f.Run_journal.bugs)
            (findings_for ~approach
               ~policy:(Policy.of_firmware info.Bug.firmware) ())
        in
        Table.add_row t
          [
            info.Bug.report;
            Bug.firmware_name info.Bug.firmware;
            Bug.symptom_to_string info.Bug.symptom;
            Sensor.kind_to_string info.Bug.sensor;
            info.Bug.window_label;
            (if found "Avis" then "found" else "missed");
            (if found "Strat. BFI" then "found" else "missed");
          ]
      end)
    Bug.all;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table III                                                            *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section
    (Printf.sprintf
       "Table III: unsafe scenarios identified per approach (%.0f s budget \
        per approach per workload)"
       budget_s);
  let t =
    Table.create
      ~header:[ "Approach"; "ArduPilot Unsafe #"; "PX4 Unsafe #"; "Total #" ]
  in
  List.iter
    (fun (name, _) ->
      let apm = List.length (findings_for ~approach:name ~policy:Policy.apm ()) in
      let px4 = List.length (findings_for ~approach:name ~policy:Policy.px4 ()) in
      Table.add_row t
        [ name; string_of_int apm; string_of_int px4; string_of_int (apm + px4) ])
    approaches;
  Table.print t;
  let avis = List.length (findings_for ~approach:"Avis" ()) in
  let strat = List.length (findings_for ~approach:"Strat. BFI" ()) in
  if strat > 0 then
    Printf.printf "Avis found %.1fx more unsafe conditions than Stratified BFI.\n"
      (float_of_int avis /. float_of_int strat)

(* ------------------------------------------------------------------ *)
(* Table IV                                                             *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table IV: unsafe scenarios per operating mode at injection";
  let t =
    Table.create
      ~header:[ "Approach"; "Takeoff #"; "Manual #"; "Waypoint #"; "Land #" ]
  in
  List.iter
    (fun (name, _) ->
      Table.add_row t
        (name
        :: List.map
             (fun (_, n) -> string_of_int n)
             (Campaign.count_by_bucket (findings_for ~approach:name ()))))
    approaches;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table V                                                              *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "Table V: re-inserted known bugs";
  let t =
    Table.create
      ~header:
        [ "Bug ID"; "Avis found"; "Avis sims"; "Strat. BFI found";
          "Strat. BFI sims" ]
  in
  let known = List.filter (fun bug -> (Bug.info bug).Bug.known) Bug.all in
  let row_for bug =
    let info = Bug.info bug in
    Printf.eprintf "[bench] Table V campaign for %s...\n%!" info.Bug.report;
    let policy = Policy.of_firmware info.Bug.firmware in
    let workload =
      if bug = Bug.Apm_4455 then Workload.manual_box else Workload.auto_box
    in
    let run approach strategy =
      let config =
        {
          (Campaign.default_config policy workload) with
          Campaign.budget_s;
          enabled_bugs = [ bug ];
          seed =
            Campaign.cell_seed ~policy:policy.Policy.name
              ~workload:workload.Workload.name
              ~approach:(approach ^ "/" ^ info.Bug.report) ();
        }
      in
      let result =
        Campaign.run
          ~stop_when:(fun f -> List.mem bug f.Campaign.report.Report.triggered_bugs)
          config ~strategy
      in
      Campaign.simulations_until_bug result bug
    in
    let avis = run "Avis" (fun ctx -> Sabre.make ctx) in
    let strat = run "Strat. BFI" (fun ctx -> Strat_bfi.make ctx) in
    let show = function
      | Some n -> ("found", string_of_int n)
      | None -> ("missed", "n/a")
    in
    let avis_found, avis_sims = show avis in
    let strat_found, strat_sims = show strat in
    [ info.Bug.report; avis_found; avis_sims; strat_found; strat_sims ]
  in
  List.iter (Table.add_row t) (Pool.map ~jobs row_for known);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablation_search_order () =
  section "Ablation: search order under an equal (reduced) budget";
  let t =
    Table.create ~header:[ "Strategy"; "simulations"; "unsafe found" ]
  in
  let row_for (name, strategy) =
    Printf.eprintf "[bench] ablation strategy %s...\n%!" name;
    let config =
      {
        (Campaign.default_config Policy.apm Workload.auto_box) with
        Campaign.budget_s = Float.min budget_s 1200.0;
      }
    in
    let result = Campaign.run config ~strategy in
    [
      name;
      string_of_int result.Campaign.simulations;
      string_of_int (Campaign.unsafe_count result);
    ]
  in
  List.iter (Table.add_row t)
    (Pool.map ~jobs row_for
       [
         ("SABRE", fun ctx -> Sabre.make ctx);
         ("SABRE, no pruning", fun ctx ->
           Sabre.make ~prune:(Prune.create ~symmetry:false ~found_bug:false ()) ctx);
         ("plain BFS", fun ctx -> Bfs.make ctx);
         ("plain DFS", fun ctx -> Dfs.make ctx);
       ]);
  Table.print t

let ablation_liveliness_metric () =
  section "Ablation: liveliness metric (position-only vs full state tuple)";
  let config = Campaign.default_config Policy.apm Workload.auto_box in
  let profile, _, _ = Campaign.profile_and_context config in
  let golden =
    Campaign.execute_run config ~seed:config.Campaign.seed
      ~scenario:Scenario.empty
  in
  let takeoff =
    match transition_into golden "Takeoff" with Some t -> t | None -> 2.0 in
  let wp1 =
    match transition_into golden "Waypoint 1" with Some t -> t | None -> 10.0 in
  let t =
    Table.create
      ~header:[ "Scenario"; "fault at"; "full-metric detection"; "position-only" ]
  in
  List.iter
    (fun (label, bug, kind, at) ->
      let o = run_auto_box Policy.apm ~enabled:[ bug ] ~plan:(fail_kind kind at) in
      let show metric =
        match Monitor.detection_time ~metric profile o with
        | Some time -> Printf.sprintf "t=%.1f s (+%.1f s)" time (time -. at)
        | None -> "not detected"
      in
      Table.add_row t
        [
          label; Printf.sprintf "%.1f" at;
          show Distance.Full; show Distance.Position_only;
        ])
    [
      ("APM-16027 fly-away", Bug.Apm_16027, Sensor.Barometer, takeoff +. 0.1);
      ("APM-16020 fly-away", Bug.Apm_16020, Sensor.Gps, wp1 +. 0.2);
      ("APM-16967 heading loss",
       Bug.Apm_16967, Sensor.Compass,
       (match transition_into golden "Waypoint 2" with Some t -> t +. 0.5 | None -> 15.0));
    ];
  Table.print t

let ablation_replay () =
  section "Ablation: mode-relative vs absolute-time replay";
  let config =
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = Float.min budget_s 1200.0;
    }
  in
  let result =
    Campaign.run ~stop_when:(fun _ -> true) config
      ~strategy:(fun ctx -> Sabre.make ctx)
  in
  match result.Campaign.findings with
  | [] -> Printf.printf "no finding available for the replay ablation\n"
  | finding :: _ ->
    let report = finding.Campaign.report in
    Printf.printf "finding: %s\n" (Report.describe report);
    let seeds = [ 101; 202; 303; 404; 505; 606 ] in
    let relative_ok =
      List.length
        (List.filter
           (fun seed ->
             (Replay.replay ~config ~profile:result.Campaign.profile ~seed report)
               .Replay.reproduced)
           seeds)
    in
    (* Absolute-time replay: re-inject at the original timestamps. *)
    let absolute_ok =
      List.length
        (List.filter
           (fun seed ->
             let base = Avis_sitl.Sim.default_config Policy.apm in
             let sim_cfg =
               {
                 base with
                 Avis_sitl.Sim.seed;
                 max_duration = Workload.auto_box.Workload.nominal_duration +. 60.0;
               }
             in
             let sim =
               Avis_sitl.Sim.create ~plan:(Scenario.to_plan report.Report.scenario)
                 sim_cfg
             in
             let passed = Workload.execute Workload.auto_box sim in
             let o = Avis_sitl.Sim.outcome sim ~workload_passed:passed in
             match Monitor.check result.Campaign.profile o with
             | Monitor.Unsafe _ -> true
             | Monitor.Safe -> false)
           seeds)
    in
    Printf.printf
      "mode-relative replay reproduced %d/%d; absolute-time replay %d/%d\n"
      relative_ok (List.length seeds) absolute_ok (List.length seeds)

(* Two campaigns of one config are identical exactly when their
   journal-record bytes, with the measured duration cleared, are: counts,
   the spent ledger's bits and every finding's index, description, bucket
   and bug attribution. *)
let same_result config a b =
  let bytes result =
    let record =
      Campaign.record_of_result config ~approach:"" ~fingerprint:"" result
    in
    Json.to_string
      (Run_journal.record_to_json { record with Run_journal.elapsed_bits = None })
  in
  bytes a = bytes b

(* ------------------------------------------------------------------ *)
(* Link faults: campaigns over the link-outage scenario space           *)
(* ------------------------------------------------------------------ *)

let link_faults_bench () =
  section "Link faults: GCS-loss findings per personality";
  let bench_budget = budget_s in
  (* One cell per personality: a SABRE campaign restricted (via the gate)
     to the link-outage scenario space — outages at mode boundaries plus
     the sensor faults SABRE composes onto the failsafe transitions those
     outages induce — stopped at the first finding whose scenario includes
     the outage. Each cell runs cold and cached; both must agree on every
     count, so the outage scenarios fork bit-identically from snapshots. *)
  let run_cell policy =
    let config cached =
      {
        (Campaign.default_config policy Workload.auto_box) with
        Campaign.budget_s = bench_budget;
        prefix_cache = cached;
        seed =
          Campaign.cell_seed ~policy:policy.Policy.name
            ~workload:Workload.auto_box.Workload.name ~approach:"link" ();
      }
    in
    let link_finding f =
      Scenario.has_link_loss f.Campaign.report.Report.scenario
    in
    let gate s = (0.0, Scenario.has_link_loss s) in
    let time cached =
      let t0 = Metrics.now_s () in
      let result =
        Campaign.run ~stop_when:link_finding (config cached)
          ~strategy:(fun ctx -> Sabre.make ~gate ctx)
      in
      (result, Metrics.now_s () -. t0)
    in
    let cold, cold_s = time false in
    let cached, cached_s = time true in
    let identical = same_result (config false) cold cached in
    let found = List.filter link_finding cold.Campaign.findings in
    (policy, cold, found, cold_s, cached_s, identical)
  in
  let rows = Pool.map ~jobs run_cell policies in
  let t =
    Table.create
      ~header:
        [ "Firmware"; "sims"; "findings"; "link findings"; "cold (s)";
          "cached (s)"; "identical" ]
  in
  List.iter
    (fun (policy, cold, found, cold_s, cached_s, identical) ->
      Table.add_row t
        [
          policy.Policy.name;
          string_of_int cold.Campaign.simulations;
          string_of_int (Campaign.unsafe_count cold);
          string_of_int (List.length found);
          Printf.sprintf "%.2f" cold_s;
          Printf.sprintf "%.2f" cached_s;
          (if identical then "yes" else "NO");
        ])
    rows;
  Table.print t;
  List.iter
    (fun (policy, _, found, _, _, _) ->
      match found with
      | f :: _ ->
        Printf.printf "%s first link finding: %s\n" policy.Policy.name
          (Report.describe f.Campaign.report)
      | [] ->
        Printf.printf
          "%s: no link finding within the budget (raise AVIS_BUDGET)\n"
          policy.Policy.name)
    rows;
  let json =
    Json.Assoc
      [
        ("budget_s", Json.Number bench_budget);
        ( "cells",
          Json.List
            (List.map
               (fun (policy, cold, found, cold_s, cached_s, identical) ->
                 Json.Assoc
                   [
                     ("firmware", Json.String policy.Policy.name);
                     ("workload", Json.String Workload.auto_box.Workload.name);
                     ("simulations", Json.int cold.Campaign.simulations);
                     ("findings", Json.int (Campaign.unsafe_count cold));
                     ("link_findings", Json.int (List.length found));
                     ( "first_link_finding",
                       match found with
                       | [] -> Json.Null
                       | f :: _ ->
                         Json.String (Report.describe f.Campaign.report) );
                     ("cold_wall_s", Json.Number cold_s);
                     ("cached_wall_s", Json.Number cached_s);
                     ("identical", Json.Bool identical);
                   ])
               rows) );
      ]
  in
  let path = "BENCH_link_faults.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string_pretty json);
      output_char oc '\n');
  Printf.printf "wrote %s (%d cells)\n" path (List.length rows)

(* ------------------------------------------------------------------ *)
(* Simulator characteristics (the paper's slowdown discussion)          *)
(* ------------------------------------------------------------------ *)

let simulator_stats () =
  section "Simulator characteristics";
  let golden = run_auto_box Policy.apm ~enabled:[] ~plan:[] in
  Printf.printf
    "auto-box mission: %.1f simulated s, %d sensor reads (%.0f reads/s), %d \
     mode transitions\n"
    golden.Avis_sitl.Sim.duration golden.Avis_sitl.Sim.sensor_reads
    (float_of_int golden.Avis_sitl.Sim.sensor_reads /. golden.Avis_sitl.Sim.duration)
    (List.length golden.Avis_sitl.Sim.transitions);
  (* One flight takes tens of milliseconds, too short to time once on a
     shared machine: report the median of five with their range.
     Monotonic: a wall-clock step (NTP, DST) must not skew the ratio. *)
  let flights = 5 in
  let speedups =
    Array.init flights (fun _ ->
        let t0 = Metrics.now_s () in
        ignore (run_auto_box Policy.apm ~enabled:[] ~plan:[]);
        golden.Avis_sitl.Sim.duration /. (Metrics.now_s () -. t0))
  in
  Array.sort Float.compare speedups;
  Printf.printf
    "real-time speed-up on this machine: %.0fx (median of %d flights, \
     %.0f-%.0fx)\n"
    speedups.(flights / 2) flights speedups.(0) speedups.(flights - 1)

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "Avis reproduction benchmarks (budget %.0f s of modelled wall-clock per \
     approach per workload, %d campaign domain(s); override with AVIS_BUDGET \
     and AVIS_JOBS%s)\n"
    budget_s jobs
    (if tracing then "; tracing ON (AVIS_TRACE)" else "");
  (* AVIS_BENCH_ONLY=<part> runs a single section — CI's kill-and-resume
     gate uses it to journal one campaign-matrix table without re-running
     the whole evaluation. *)
  let only =
    match Sys.getenv_opt "AVIS_BENCH_ONLY" with
    | Some v when String.trim v <> "" -> Some (String.trim v)
    | _ -> None
  in
  let parts =
    [
      ("table1", table1);
      ("fig3", fig3);
      ("fig5", fig5);
      ("fig6", fig6);
      ("fig1", fig1);
      ("fig9", fig9);
      ("fig10", fig10);
      ("table2", table2);
      ("table3", table3);
      ("table4", table4);
      ("table5", table5);
      ("ablation_search_order", ablation_search_order);
      ("ablation_liveliness_metric", ablation_liveliness_metric);
      ("ablation_replay", ablation_replay);
      ("link_faults", link_faults_bench);
      ("simulator_stats", simulator_stats);
    ]
  in
  (* A typo'd section name must fail loudly: silently running zero
     sections and exiting 0 turns a broken CI invocation into a pass. *)
  (match only with
  | Some o when not (List.mem_assoc o parts) ->
    Printf.eprintf
      "avis_bench: unknown AVIS_BENCH_ONLY section %S.\nValid sections: %s\n"
      o
      (String.concat ", " (List.map fst parts));
    exit 2
  | Some _ | None -> ());
  List.iter
    (fun (name, f) ->
      match only with
      | Some o when o <> name -> ()
      | _ -> Trace.span ~cat:"bench" ("bench." ^ name) f)
    parts;
  if tracing then begin
    Trace.write_chrome ~path:trace_path;
    section "Trace: per-phase wall-clock attribution";
    Printf.printf
      "wrote %s (%d events; open in https://ui.perfetto.dev or \
       chrome://tracing)\n"
      trace_path (Trace.event_count ());
    print_string (Table.render (Trace.summary_table ()));
    print_newline ()
  end
