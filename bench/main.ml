(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation (§III and §VI), the design-choice ablations called
   out in DESIGN.md, and a bechamel micro-benchmark suite.

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
  let profile, _, golden = Campaign.profile_and_context config in
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

(* A campaign's journal-record bytes with the measured duration cleared:
   counts, the spent ledger's bits and every finding's index,
   description, bucket and bug attribution. Two campaigns of one config
   are identical exactly when these bytes are. *)
let record_bytes config result =
  let record =
    Campaign.record_of_result config ~approach:"" ~fingerprint:"" result
  in
  Json.to_string
    (Run_journal.record_to_json { record with Run_journal.elapsed_bits = None })

let same_result config a b = record_bytes config a = record_bytes config b

(* ------------------------------------------------------------------ *)
(* Prefix cache: cold vs cached campaign wall-clock                     *)
(* ------------------------------------------------------------------ *)

let prefix_cache_bench () =
  section "Prefix cache: cold vs cached campaign wall-clock";
  let bench_budget = Float.min budget_s 900.0 in
  let bench_workloads =
    [ Workload.quickstart; Workload.manual_box; Workload.auto_box ]
  in
  let specs =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun workload ->
            List.map (fun approach -> (policy, workload, approach)) approaches)
          bench_workloads)
      policies
  in
  (* Three campaigns per cell, back to back on the same domain so their
     wall-clock ratios are insulated from pool scheduling: cold (no cache),
     cached (fresh cache — the first-run win comes from forking scenarios
     off the clean run and off earlier scenarios' faulty prefixes), and
     replay (same cache again — the regression-re-run / finding-reproduction
     path, where every scenario forks from its last checkpoint and only the
     tail is simulated). All three must produce identical results. *)
  let run_cell (policy, workload, (name, strategy)) =
    let config cached =
      {
        (Campaign.default_config policy workload) with
        Campaign.budget_s = bench_budget;
        prefix_cache = cached;
        seed =
          Campaign.cell_seed ~policy:policy.Policy.name
            ~workload:workload.Workload.name ~approach:name ();
      }
    in
    let time ?cache cached =
      let t0 = Metrics.now_s () in
      let result = Campaign.run ?cache (config cached) ~strategy in
      (result, Metrics.now_s () -. t0)
    in
    let cold, cold_s = time false in
    let cache = Campaign.make_cache (config true) in
    let cached, cached_s = time ~cache true in
    let replay, replay_s = time ~cache true in
    let same = same_result (config false) in
    let identical = same cold cached && same cold replay in
    (policy, workload, name, cold, cached, cold_s, cached_s, replay_s, identical)
  in
  let rows = Pool.map ~jobs run_cell specs in
  let speedup cold_s s = cold_s /. Float.max 1e-9 s in
  let t =
    Table.create
      ~header:
        [ "Approach"; "Firmware"; "Workload"; "cold (s)"; "cached (s)";
          "speedup"; "replay (s)"; "speedup"; "identical" ]
  in
  List.iter
    (fun (policy, workload, name, _, _, cold_s, cached_s, replay_s, identical) ->
      Table.add_row t
        [
          name; policy.Policy.name; workload.Workload.name;
          Printf.sprintf "%.2f" cold_s;
          Printf.sprintf "%.2f" cached_s;
          Printf.sprintf "%.1fx" (speedup cold_s cached_s);
          Printf.sprintf "%.2f" replay_s;
          Printf.sprintf "%.1fx" (speedup cold_s replay_s);
          (if identical then "yes" else "NO");
        ])
    rows;
  Table.print t;
  List.iter
    (fun (policy, workload, name, _, _, cold_s, cached_s, replay_s, _) ->
      if
        name = "Avis"
        && workload.Workload.name = Workload.quickstart.Workload.name
      then
        Printf.printf
          "SABRE quickstart (%s): first run %.1fx, campaign replay %.1fx\n"
          policy.Policy.name
          (speedup cold_s cached_s)
          (speedup cold_s replay_s))
    rows;
  let json =
    Json.Assoc
      [
        ("budget_s", Json.Number bench_budget);
        ( "cells",
          Json.List
            (List.map
               (fun ( policy, workload, name, cold, cached,
                      cold_s, cached_s, replay_s, identical ) ->
                 let stats =
                   match cached.Campaign.cache_stats with
                   | None -> []
                   | Some s ->
                     [
                       ("cache_hits", Json.int s.Prefix_cache.hits);
                       ("cache_misses", Json.int s.Prefix_cache.misses);
                       ("saved_sim_s", Json.Number s.Prefix_cache.saved_sim_s);
                     ]
                 in
                 Json.Assoc
                   ([
                      ("approach", Json.String name);
                      ("firmware", Json.String policy.Policy.name);
                      ("workload", Json.String workload.Workload.name);
                      ("cold_wall_s", Json.Number cold_s);
                      ("cached_wall_s", Json.Number cached_s);
                      ("speedup", Json.Number (speedup cold_s cached_s));
                      ("replay_wall_s", Json.Number replay_s);
                      ("replay_speedup", Json.Number (speedup cold_s replay_s));
                      ("simulations", Json.int cold.Campaign.simulations);
                      ("findings", Json.int (Campaign.unsafe_count cold));
                      ("identical", Json.Bool identical);
                    ]
                   @ stats))
               rows) );
      ]
  in
  let path = "BENCH_prefix_cache.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string_pretty json);
      output_char oc '\n');
  Printf.printf "wrote %s (%d cells)\n" path (List.length rows)

(* ------------------------------------------------------------------ *)
(* Checkpoint store: cold vs warm-process campaign wall-clock           *)
(* ------------------------------------------------------------------ *)

let store_bench () =
  section "Checkpoint store: cold vs warm-process campaign wall-clock";
  let bench_budget = Float.min budget_s 300.0 in
  let policy = Policy.apm and workload = Workload.quickstart in
  let name, strategy = List.hd approaches in
  let store_dir =
    match Sys.getenv_opt "AVIS_STORE_DIR" with
    | Some d when d <> "" -> d
    | _ -> Filename.concat (Filename.get_temp_dir_name ()) "avis-bench-store"
  in
  (* Did a previous *process* leave checkpoints behind? When CI runs this
     section twice against one store dir, the second pass must start warm
     and be served from disk. *)
  let warm_start =
    Sys.file_exists store_dir
    && (try
          Array.exists
            (fun f -> Filename.check_suffix f ".ckpt")
            (Sys.readdir store_dir)
        with Sys_error _ -> false)
  in
  let config cached =
    {
      (Campaign.default_config policy workload) with
      Campaign.budget_s = bench_budget;
      prefix_cache = cached;
      seed =
        Campaign.cell_seed ~policy:policy.Policy.name
          ~workload:workload.Workload.name ~approach:name ();
    }
  in
  let time ?cache cached =
    let t0 = Metrics.now_s () in
    let result = Campaign.run ?cache (config cached) ~strategy in
    (result, Metrics.now_s () -. t0)
  in
  (* Three campaigns: cold (no cache, no store), then two with *fresh*
     prefix-cache instances sharing the store directory. The second
     instance starts with empty memory, so everything it restores comes
     off disk — the same path a brand-new process takes. *)
  let cold, cold_s = time false in
  let first, first_s = time ~cache:(Campaign.make_cache ~store_dir (config true)) true in
  let second, second_s =
    time ~cache:(Campaign.make_cache ~store_dir (config true)) true
  in
  let same = same_result (config false) in
  let identical = same cold first && same cold second in
  let store_counters (r : Campaign.result) =
    match r.Campaign.cache_stats with
    | Some s -> Prefix_cache.(s.store_hits, s.store_misses, s.store_bytes)
    | None -> (0, 0, 0)
  in
  let first_hits, first_misses, _ = store_counters first in
  let second_hits, second_misses, store_bytes = store_counters second in
  let t =
    Table.create
      ~header:
        [ "campaign"; "wall (s)"; "store hits"; "store miss"; "identical" ]
  in
  let yn b = if b then "yes" else "NO" in
  Table.add_row t [ "cold (store off)"; Printf.sprintf "%.2f" cold_s; "-"; "-"; "-" ];
  Table.add_row t
    [ "first instance"; Printf.sprintf "%.2f" first_s;
      string_of_int first_hits; string_of_int first_misses;
      yn (same cold first) ];
  Table.add_row t
    [ "second instance"; Printf.sprintf "%.2f" second_s;
      string_of_int second_hits; string_of_int second_misses;
      yn (same cold second) ];
  Table.print t;
  Printf.printf
    "store dir %s: %d bytes, warm start %s, second instance served %s\n"
    store_dir store_bytes (yn warm_start) (yn (second_hits > 0));
  let json =
    Json.Assoc
      [
        ("budget_s", Json.Number bench_budget);
        ("approach", Json.String name);
        ("firmware", Json.String policy.Policy.name);
        ("workload", Json.String workload.Workload.name);
        ("store_dir", Json.String store_dir);
        ("warm_start", Json.Bool warm_start);
        ("cold_wall_s", Json.Number cold_s);
        ("first_wall_s", Json.Number first_s);
        ("second_wall_s", Json.Number second_s);
        ("first_store_hits", Json.int first_hits);
        ("first_store_misses", Json.int first_misses);
        ("second_store_hits", Json.int second_hits);
        ("second_store_misses", Json.int second_misses);
        ("store_bytes", Json.int store_bytes);
        ("store_served", Json.Bool (second_hits > 0));
        ("simulations", Json.int cold.Campaign.simulations);
        ("findings", Json.int (Campaign.unsafe_count cold));
        ("identical", Json.Bool identical);
      ]
  in
  let path = "BENCH_store.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string_pretty json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

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
(* Hot loop: allocation-free kernel vs the reference step               *)
(* ------------------------------------------------------------------ *)

let hotloop_bench () =
  section "Hot loop: allocation-free kernel vs reference step";
  let open Avis_geo in
  let open Avis_physics in
  let hover = Airframe.hover_throttle Airframe.iris in
  let dt = 0.004 in
  (* Stable hover far above the ground: neither loop may ever take the
     crashed fast path, or the ratio measures a no-op. *)
  let make_world () = World.create ~position:(Vec3.make 0.0 0.0 100.0) () in
  let cmds = Array.make 4 hover in
  (* Open-loop hover is only metastable — rounding in the torque balance
     tips the vehicle over after ~11 k steps — so the loop re-arms from a
     pristine snapshot every [batch] steps. The restore is a handful of
     blits, invisible at this cadence. *)
  let batch = 8_000 in
  let time_steps stepf n =
    let pristine = World.snapshot (make_world ()) in
    let warm = World.restore pristine in
    for _ = 1 to 1000 do
      ignore (stepf warm ~motor_commands:cmds ~dt)
    done;
    if World.crashed warm then failwith "hotloop: bench vehicle crashed";
    let remaining = ref n in
    let t0 = Metrics.now_s () in
    while !remaining > 0 do
      let k = min batch !remaining in
      let w = World.restore pristine in
      for _ = 1 to k do
        ignore (stepf w ~motor_commands:cmds ~dt)
      done;
      if World.crashed w then failwith "hotloop: bench vehicle crashed";
      remaining := !remaining - k
    done;
    let s = Metrics.now_s () -. t0 in
    float_of_int n /. Float.max 1e-9 s
  in
  let n = 500_000 in
  let steps_per_sec = time_steps World.step n in
  let baseline_steps_per_sec = time_steps World.step_reference n in
  let speedup = steps_per_sec /. Float.max 1e-9 baseline_steps_per_sec in
  (* Steady-state allocation of the full kernel — physics step, sensor
     tick, trace record — in minor-heap words per step. *)
  let minor_words_per_step =
    let w = make_world () in
    let suite = Suite.create ~rng:(Rng.create 1) () in
    let trace = Avis_sitl.Trace.create () in
    let steps = ref 0 in
    let kernel () =
      ignore (World.step w ~motor_commands:cmds ~dt);
      Suite.tick suite w ~dt;
      incr steps;
      Avis_sitl.Trace.record trace ~steps:!steps ~dt w ~mode:"Manual"
    in
    for _ = 1 to 2000 do kernel () done;
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do kernel () done;
    (Gc.minor_words () -. w0) /. 1000.0
  in
  (* Bit-identity of the optimised kernel against the reference over a
     profile that exercises climb, asymmetric thrust and descent, in calm
     and windy air. *)
  let fingerprint w =
    let b = World.body w in
    let p = Rigid_body.position_v b
    and v = Rigid_body.velocity_v b
    and q = Rigid_body.attitude_q b
    and o = Rigid_body.angular_velocity_v b in
    List.map Int64.bits_of_float
      [ p.Vec3.x; p.y; p.z; v.x; v.y; v.z; q.Quat.w; q.Quat.x; q.Quat.y;
        q.Quat.z; o.Vec3.x; o.y; o.z; World.time w ]
  in
  let profile i =
    if i < 200 then Array.make 4 (hover *. 1.2)
    else if i < 1200 then [| hover *. 1.02; hover *. 0.98; hover; hover |]
    else Array.make 4 (hover *. 0.9)
  in
  let flight_world ~windy =
    let environment =
      if windy then
        Environment.create
          ~wind:
            (Some
               { Environment.steady = Vec3.make 3.0 1.0 0.0;
                 gust_stddev = 1.0; gust_correlation_s = 1.0 })
          ()
      else Environment.benign ()
    in
    World.create ~environment ~rng:(Rng.create 7)
      ~position:(Vec3.make 0.0 0.0 0.0) ()
  in
  let flight stepf ~windy =
    let w = flight_world ~windy in
    for i = 0 to 2999 do
      ignore (stepf w ~motor_commands:(profile i) ~dt)
    done;
    fingerprint w
  in
  let kernel_identical =
    List.for_all
      (fun windy -> flight World.step ~windy = flight World.step_reference ~windy)
      [ false; true ]
  in
  (* Compact snapshot: exact byte size and capture/restore latency. *)
  let snap_world = make_world () in
  for _ = 1 to 500 do
    ignore (World.step snap_world ~motor_commands:cmds ~dt)
  done;
  let snap = World.snapshot snap_world in
  let snapshot_bytes = World.snapshot_bytes snap in
  let k = 20_000 in
  let t0 = Metrics.now_s () in
  for _ = 1 to k do
    ignore (World.snapshot snap_world)
  done;
  let snapshot_ms = 1000.0 *. (Metrics.now_s () -. t0) /. float_of_int k in
  let t0 = Metrics.now_s () in
  for _ = 1 to k do
    ignore (World.restore snap)
  done;
  let restore_ms = 1000.0 *. (Metrics.now_s () -. t0) /. float_of_int k in
  (* End-to-end outcome identity: the same small campaign with the prefix
     cache on and off must agree on every count. *)
  let bench_budget = Float.min budget_s 120.0 in
  let config cached =
    {
      (Campaign.default_config Policy.apm Workload.auto_box) with
      Campaign.budget_s = bench_budget;
      prefix_cache = cached;
      seed =
        Campaign.cell_seed ~policy:Policy.apm.Policy.name
          ~workload:Workload.auto_box.Workload.name ~approach:"hotloop" ();
    }
  in
  let run cached =
    Campaign.run (config cached) ~strategy:(fun ctx -> Sabre.make ctx)
  in
  let cold = run false in
  let cached = run true in
  let campaign_identical = same_result (config false) cold cached in
  let cache_resident_bytes, cache_evictions =
    match cached.Campaign.cache_stats with
    | Some s -> (s.Prefix_cache.resident_bytes, s.Prefix_cache.evictions)
    | None -> (0, 0)
  in
  let identical = kernel_identical && campaign_identical in
  let t =
    Table.create
      ~header:[ "metric"; "optimised"; "reference" ]
  in
  Table.add_row t
    [ "steps/s"; Printf.sprintf "%.2e" steps_per_sec;
      Printf.sprintf "%.2e" baseline_steps_per_sec ];
  Table.add_row t [ "speedup"; Printf.sprintf "%.1fx" speedup; "1.0x" ];
  Table.add_row t
    [ "minor words/step"; Printf.sprintf "%.3f" minor_words_per_step; "-" ];
  Table.add_row t
    [ "snapshot"; Printf.sprintf "%.4f ms / %d B" snapshot_ms snapshot_bytes;
      "-" ];
  Table.add_row t [ "restore"; Printf.sprintf "%.4f ms" restore_ms; "-" ];
  Table.add_row t
    [ "identical"; (if identical then "yes" else "NO"); "baseline" ];
  Table.print t;
  Printf.printf
    "campaign cache-on vs cache-off: %s (resident %d B, %d evictions)\n"
    (if campaign_identical then "identical" else "DIVERGED")
    cache_resident_bytes cache_evictions;
  let json =
    Json.Assoc
      [
        ("steps_per_sec", Json.Number steps_per_sec);
        ("baseline_steps_per_sec", Json.Number baseline_steps_per_sec);
        ("speedup", Json.Number speedup);
        ("minor_words_per_step", Json.Number minor_words_per_step);
        ("snapshot_ms", Json.Number snapshot_ms);
        ("snapshot_bytes", Json.int snapshot_bytes);
        ("restore_ms", Json.Number restore_ms);
        ("cache_resident_bytes", Json.int cache_resident_bytes);
        ("cache_evictions", Json.int cache_evictions);
        ("identical", Json.Bool identical);
      ]
  in
  let path = "BENCH_hotloop.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string_pretty json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Scheduling: cost-model-guided LPT vs static shards                   *)
(* ------------------------------------------------------------------ *)

(* A deliberately skewed matrix — twelve short cells plus one ~4.5x
   longer cell, long cell last in arrival order — is where scheduling
   policy shows: round-robin static shards trap the long cell behind a
   shard-mate backlog, and arrival-order dispatch starts it last so it
   straggles. Makespans are computed by deterministic list-scheduling
   simulation over each cell's measured duration (a real parallel run's
   wall-clock would measure the CI runner's core count, not the
   scheduler); the real runs below feed the identity check instead. *)

type sched_spec = {
  sname : string;
  spolicy : Policy.t;
  sbudget_s : float;
  sbase : int;  (** Base seed: distinct per short cell. *)
}

let sched_workers = 4

let sched_specs =
  let short_budget_s = 20.0 in
  List.init 12 (fun i ->
      {
        sname = Printf.sprintf "short%02d" i;
        spolicy = Policy.apm;
        sbudget_s = short_budget_s;
        sbase = i + 1;
      })
  (* Same approach and workload as the shorts but a different firmware:
     a distinct cost-model class (the label keys approach x firmware x
     workload). The px4 model costs roughly half the wall-clock of apm
     per modelled second, so 8.5x the modelled budget lands the long
     cell's wall time near 4x a short's — the skew that maximises the
     static-shard straggler penalty ((3s + L) vs max(L, 4s)). *)
  @ [ { sname = "long"; spolicy = Policy.px4;
        sbudget_s = 8.5 *. short_budget_s; sbase = 1 } ]

let sched_config spec =
  {
    (Campaign.default_config spec.spolicy Workload.quickstart) with
    Campaign.budget_s = spec.sbudget_s;
    seed =
      Campaign.cell_seed ~base:spec.sbase ~policy:spec.spolicy.Policy.name
        ~workload:Workload.quickstart.Workload.name ~approach:"random" ();
  }

let sched_label spec =
  Campaign.label_of (sched_config spec) ~approach:"random"

let sched_run spec =
  Campaign.run (sched_config spec) ~strategy:(fun ctx -> Random_search.make ctx)

(* A cell's result bytes ({!record_bytes}): wall measurements differ run
   to run; everything that matters must not. *)
let sched_digest spec = record_bytes (sched_config spec)

(* Greedy list scheduling (earliest-free worker takes the next cell in
   [order]): what the pull dispatcher converges to when every cell's
   duration is known. Returns the makespan and per-worker busy seconds. *)
let sched_simulate ~workers order =
  let free = Array.make workers 0.0 in
  let busy = Array.make workers 0.0 in
  List.iter
    (fun (_, d) ->
      let w = ref 0 in
      Array.iteri (fun i t -> if t < free.(!w) then w := i) free;
      free.(!w) <- free.(!w) +. d;
      busy.(!w) <- busy.(!w) +. d)
    order;
  (Array.fold_left Float.max 0.0 free, busy)

let sched_bench () =
  section "Scheduling (pull dispatch + LPT vs static shards)";
  (* Sequential reference: measures every cell's duration (the cost
     model's training data and the simulation's ground truth) and fixes
     the result bytes the parallel runs must reproduce. *)
  let reference =
    List.map
      (fun spec ->
        let t0 = Metrics.now_s () in
        let result = sched_run spec in
        let elapsed_s = Metrics.now_s () -. t0 in
        (spec, sched_digest spec result, elapsed_s))
      sched_specs
  in
  let cost = Cost_model.create () in
  List.iter
    (fun (spec, _, elapsed_s) ->
      Cost_model.observe cost ~label:(sched_label spec) ~elapsed_s)
    reference;
  let arrival = List.map (fun (spec, _, d) -> (spec, d)) reference in
  (* Heaviest predicted first, through the same model the daemon and the
     matrix runners use; ties keep arrival order. *)
  let weight spec =
    Cost_model.predict cost ~label:(sched_label spec) ~budget_s:spec.sbudget_s
  in
  let lpt =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare (weight b) (weight a))
      arrival
  in
  (* The historical static schedule: cells round-robined into one shard
     per worker up front, each shard a sequential run. *)
  let shard_sums =
    List.map
      (fun shard -> List.fold_left (fun acc (_, d) -> acc +. d) 0.0 shard)
      (Avis_server.Worker.shard_cells ~shards:sched_workers arrival)
  in
  let makespan_static = List.fold_left Float.max 0.0 shard_sums in
  let makespan_pull_arrival, _ =
    sched_simulate ~workers:sched_workers arrival
  in
  let makespan_pull_lpt, busy = sched_simulate ~workers:sched_workers lpt in
  let makespan_ratio = makespan_static /. Float.max 1e-9 makespan_pull_lpt in
  let lpt_gain = makespan_pull_arrival /. Float.max 1e-9 makespan_pull_lpt in
  let speedup_ok = makespan_ratio >= 1.5 in
  (* Identity: the same cells through a real static-shard run and a real
     pull-order (LPT) run must reproduce the sequential bytes exactly —
     scheduling must never touch results. *)
  let digests_of run_name results =
    List.map2
      (fun (spec, want, _) got ->
        let ok = got = want in
        if not ok then
          Printf.eprintf "[bench] sched: %s diverged on %s\n%!" run_name
            spec.sname;
        ok)
      reference results
  in
  let static_results =
    Pool.map ~jobs:sched_workers
      (fun shard -> List.map (fun (spec, _) -> sched_digest spec (sched_run spec)) shard)
      (Avis_server.Worker.shard_cells ~shards:sched_workers arrival)
    |> List.concat
  in
  (* Shards permute the cells; compare by name against the reference. *)
  let static_by_ref =
    let shard_specs =
      List.concat (Avis_server.Worker.shard_cells ~shards:sched_workers arrival)
    in
    List.map
      (fun (spec, _, _) ->
        let rec find = function
          | [] -> ""
          | ((s, _), digest) :: rest ->
            if s.sname = spec.sname then digest else find rest
        in
        find (List.combine shard_specs static_results))
      reference
  in
  let lpt_results =
    Pool.map_lpt ~jobs:sched_workers ~weight:(fun (spec, _) -> weight spec)
      (fun (spec, _) -> sched_digest spec (sched_run spec))
      arrival
  in
  let identical =
    List.for_all Fun.id (digests_of "static-shard run" static_by_ref)
    && List.for_all Fun.id (digests_of "pull-LPT run" lpt_results)
  in
  let total_busy = Array.fold_left ( +. ) 0.0 busy in
  Printf.printf
    "13 cells (12 short + 1 long), %d workers\n\
     static shards, arrival order: makespan %.2f s\n\
     pull dispatch, arrival order: makespan %.2f s\n\
     pull dispatch, LPT order:     makespan %.2f s\n\
     static/LPT ratio %.2fx (gate >= 1.5x: %s), LPT/arrival gain %.2fx\n\
     results identical across schedules: %b\n"
    sched_workers makespan_static makespan_pull_arrival makespan_pull_lpt
    makespan_ratio
    (if speedup_ok then "ok" else "MISSED")
    lpt_gain identical;
  let json =
    Json.Assoc
      [
        ("workers", Json.int sched_workers);
        ("cells", Json.int (List.length sched_specs));
        ( "durations_s",
          Json.Assoc
            (List.map
               (fun (spec, _, d) -> (spec.sname, Json.Number d))
               reference) );
        ("makespan_static_shard_s", Json.Number makespan_static);
        ("makespan_pull_arrival_s", Json.Number makespan_pull_arrival);
        ("makespan_pull_lpt_s", Json.Number makespan_pull_lpt);
        ("makespan_ratio", Json.Number makespan_ratio);
        ("lpt_gain", Json.Number lpt_gain);
        ("speedup_ok", Json.Bool speedup_ok);
        ( "workers_busy_fraction",
          Json.List
            (List.map
               (fun b ->
                 Json.Number (b /. Float.max 1e-9 makespan_pull_lpt))
               (Array.to_list busy)) );
        ( "workers_idle_fraction",
          Json.List
            (List.map
               (fun b ->
                 Json.Number (1.0 -. (b /. Float.max 1e-9 makespan_pull_lpt)))
               (Array.to_list busy)) );
        ( "parallel_efficiency",
          Json.Number
            (total_busy
            /. Float.max 1e-9
                 (float_of_int sched_workers *. makespan_pull_lpt)) );
        ("identical", Json.Bool identical);
      ]
  in
  let path = "BENCH_sched.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string_pretty json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

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
  (* Monotonic: a wall-clock step (NTP, DST) must not skew the ratio. *)
  let t0 = Metrics.now_s () in
  ignore (run_auto_box Policy.apm ~enabled:[] ~plan:[]);
  let real = Metrics.now_s () -. t0 in
  Printf.printf "real-time speed-up on this machine: %.0fx\n"
    (golden.Avis_sitl.Sim.duration /. real)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "Micro-benchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  (* One Test.make per table/figure driver cost centre. *)
  let sim_step =
    let sim =
      Avis_sitl.Sim.create
        { (Avis_sitl.Sim.default_config Policy.apm) with
          Avis_sitl.Sim.max_duration = 1.0e12 }
    in
    Test.make ~name:"table2-4: simulation step"
      (Staged.stage (fun () -> Avis_sitl.Sim.step sim))
  in
  let monitor_check =
    let config = Campaign.default_config Policy.apm Workload.auto_box in
    let profile, _, golden = Campaign.profile_and_context config in
    Test.make ~name:"table3: monitor check of one run"
      (Staged.stage (fun () -> ignore (Monitor.check profile golden)))
  in
  let sabre_schedule =
    Test.make ~name:"fig5: SABRE scheduling decision"
      (Staged.stage
         (let ctx =
            {
              Search.transitions = [ (2.0, "Pre-Flight", "Takeoff") ];
              mission_duration = 1.0e9;
              instances = Suite.instances_of_complement Suite.iris_complement;
              instances_of_kind = (fun _ -> 2);
              mode_at = (fun _ -> Some "Takeoff");
              rng = Rng.create 0;
            }
          in
          let searcher = Sabre.make ctx in
          fun () ->
            match searcher.Search.next () with
            | Search.Run (s, _) ->
              searcher.Search.observe s
                { Search.unsafe = false; observed_transitions = [] }
            | Search.Think _ | Search.Exhausted -> ()))
  in
  let bfi_inference =
    let model = Bfi_model.default () in
    let features =
      { Bfi_model.mode_class = "Waypoint"; kinds = [ Sensor.Gps ];
        whole_kind_lost = true; multiplicity = 1 }
    in
    Test.make ~name:"table1: BFI model inference"
      (Staged.stage (fun () -> ignore (Bfi_model.predict model features)))
  in
  let frame_codec =
    let msg = Avis_mavlink.Msg.Heartbeat { custom_mode = 3; armed = true; system_status = 4 } in
    Test.make ~name:"fig7: frame encode+decode"
      (Staged.stage (fun () ->
           let encoded = Avis_mavlink.Frame.encode ~seq:0 ~sysid:1 ~compid:1 msg in
           ignore (Avis_mavlink.Frame.feed (Avis_mavlink.Frame.decoder ()) encoded)))
  in
  let tests =
    Test.make_grouped ~name:"avis"
      [ sim_step; monitor_check; sabre_schedule; bfi_inference; frame_codec ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
    in
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let results = benchmark () in
  let t = Table.create ~header:[ "benchmark"; "ns/run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (v :: _) -> Printf.sprintf "%.0f" v
        | Some [] | None -> "n/a"
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter (fun (name, ns) -> Table.add_row t [ name; ns ])
    (List.sort compare !rows);
  Table.print t

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "Avis reproduction benchmarks (budget %.0f s of modelled wall-clock per \
     approach per workload, %d campaign domain(s); override with AVIS_BUDGET \
     and AVIS_JOBS%s)\n"
    budget_s jobs
    (if tracing then "; tracing ON (AVIS_TRACE)" else "");
  (* AVIS_BENCH_ONLY=<part> runs a single section — CI uses it to replay
     the store section against a persistent store dir without re-running
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
      ("prefix_cache", prefix_cache_bench);
      ("store", store_bench);
      ("link_faults", link_faults_bench);
      ("hotloop", hotloop_bench);
      ("sched", sched_bench);
      ("simulator_stats", simulator_stats);
      ("micro", micro_benchmarks);
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
