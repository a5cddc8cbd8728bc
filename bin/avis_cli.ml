(* Command-line front end for the Avis reproduction: fly missions, hunt for
   sensor bugs, replay findings, and browse the bug study. *)

open Cmdliner
open Avis_core

let policy_of_string s =
  match Avis_server.Worker.policy_of_name s with
  | Some p -> Ok p
  | None -> Error (`Msg (Printf.sprintf "unknown firmware %S (apm|px4)" s))

let policy_conv =
  Arg.conv
    ( policy_of_string,
      fun ppf p -> Format.pp_print_string ppf p.Avis_firmware.Policy.name )

let workload_conv =
  Arg.conv
    ( (fun s ->
        match Workload.by_name s with
        | Some w -> Ok w
        | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown workload %S (quickstart|manual-box|auto-box|fence-mission)"
                 s))),
      fun ppf w -> Format.pp_print_string ppf w.Workload.name )

let fault_conv =
  (* "<kind>[index]@<seconds>", e.g. "gps[0]@12.5"; "<kind>@t" fails every
     instance of the kind. Parsing and printing live in {!Fault_spec} so
     the round-trip is testable outside cmdliner. *)
  let parse s =
    match Fault_spec.parse s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  let print ppf f = Format.pp_print_string ppf (Fault_spec.to_string f) in
  Arg.conv (parse, print)

let faults_to_plan faults =
  List.concat_map
    (fun { Fault_spec.kind; index; at } ->
      let indices =
        match index with
        | Some i -> [ i ]
        | None ->
          List.init (Avis_sensors.Suite.count kind) Fun.id
      in
      List.map
        (fun index ->
          { Avis_hinj.Hinj.sensor = { Avis_sensors.Sensor.kind; index }; at })
        indices)
    faults

let firmware_arg =
  Arg.(value & opt policy_conv Avis_firmware.Policy.apm
       & info [ "f"; "firmware" ] ~docv:"FIRMWARE" ~doc:"Firmware personality (apm|px4).")

let workload_arg =
  Arg.(value & opt workload_conv Workload.auto_box
       & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload to execute.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed.")

(* fly *)

let fly policy workload seed faults =
  let base = Avis_sitl.Sim.default_config policy in
  let config =
    {
      base with
      Avis_sitl.Sim.seed;
      max_duration = workload.Workload.nominal_duration +. 60.0;
      environment = workload.Workload.environment ();
    }
  in
  let sim = Avis_sitl.Sim.create ~plan:(faults_to_plan faults) config in
  let passed = Workload.execute workload sim in
  let outcome = Avis_sitl.Sim.outcome sim ~workload_passed:passed in
  Printf.printf "workload %s on %s: %s after %.1f s\n" workload.Workload.name
    policy.Avis_firmware.Policy.name
    (if passed then "PASSED" else "FAILED")
    outcome.Avis_sitl.Sim.duration;
  (match outcome.Avis_sitl.Sim.crash with
  | Some e ->
    Printf.printf "crash: %s\n" (Format.asprintf "%a" Avis_physics.World.pp_contact e)
  | None -> ());
  Printf.printf "mode transitions:\n";
  List.iter
    (fun tr ->
      Printf.printf "  %6.2f s  %s -> %s\n" tr.Avis_hinj.Hinj.time
        tr.Avis_hinj.Hinj.from_mode tr.Avis_hinj.Hinj.to_mode)
    outcome.Avis_sitl.Sim.transitions;
  (match outcome.Avis_sitl.Sim.triggered_bugs with
  | [] -> ()
  | bugs ->
    Printf.printf "flawed code paths exercised: %s\n"
      (String.concat ", "
         (List.map
            (fun id -> (Avis_firmware.Bug.info id).Avis_firmware.Bug.report)
            bugs)));
  Printf.printf "sensor reads intercepted: %d\n" outcome.Avis_sitl.Sim.sensor_reads

let fly_cmd =
  let faults =
    Arg.(value & opt_all fault_conv []
         & info [ "fail" ] ~docv:"SENSOR@T"
             ~doc:"Inject a clean sensor failure, e.g. gps@12.5 or gyroscope[1]@30.")
  in
  Cmd.v
    (Cmd.info "fly" ~doc:"Fly one simulated mission, optionally injecting failures.")
    Term.(const fly $ firmware_arg $ workload_arg $ seed_arg $ faults)

(* hunt *)

(* First ^C asks every in-flight campaign to stop at its next scheduling
   boundary (partial results and the trace still get written, journal
   records are marked incomplete); a second ^C aborts immediately. *)
let exit_interrupted = 130

let install_interrupt_handler () =
  let again = ref false in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if !again then exit exit_interrupted
         else begin
           again := true;
           Campaign.request_interrupt ();
           prerr_endline
             "\n[avis] interrupt: stopping at the next scheduling boundary, \
              writing partial results (^C again to abort now)"
         end))

(* The one result renderer: live, journal-memo and daemon results all
   print from the cell's journal record, which carries the same counts,
   spent seconds (by bits) and findings however the cell was obtained, so
   the same cell always renders the same bytes. [name] is the CLI approach
   name; the header shows the strategy's display name. *)
let print_record ~verbose name (record : Run_journal.record) =
  Printf.printf
    "%s: %d unsafe conditions in %d simulations (%d inferences, %.0f s spent)\n"
    (Avis_server.Worker.display_name name)
    (List.length record.Run_journal.findings)
    record.Run_journal.simulations record.Run_journal.inferences
    (Run_journal.spent_s record);
  List.iter
    (fun (label, n) -> Printf.printf "  %-8s %d\n" label n)
    (Campaign.count_by_bucket record.Run_journal.findings);
  if verbose then
    List.iteri
      (fun i (f : Run_journal.finding) ->
        Printf.printf "[%02d] sim#%d %s\n" i f.Run_journal.simulation_index
          f.Run_journal.description)
      record.Run_journal.findings

(* A quarantined cell, live or relayed by the daemon. [attempts] is the
   daemon's dispatch count; an in-process cell is attempted once. *)
let print_quarantined name ~code ~attempts ~message =
  Printf.printf "%s: QUARANTINED [%s] after %d attempt(s): %s\n" name code
    attempts message

(* The approaches flag as `submit` sends it: comma-separated, trimmed. *)
let approach_list approaches =
  String.split_on_char ',' approaches
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let hunt policy workload seed approaches budget jobs verbose artefacts trace
    journal_path =
  (* Tracing spans every campaign, simulation, cache serve and search
     decision; the file is Chrome trace format (open in Perfetto). *)
  if trace <> None then Avis_util.Trace.set_enabled true;
  install_interrupt_handler ();
  let approaches = approach_list approaches in
  (* The request `submit` would send, expanded exactly as the daemon
     expands it: a typo or a bad budget fails here, as a usage error,
     before the journal opens or any budget is spent. *)
  let cells =
    match
      Avis_server.Worker.cells_of_request
        {
          Avis_server.Wire.firmware = policy.Avis_firmware.Policy.name;
          workload = workload.Workload.name;
          approaches;
          budget_s = budget;
          seed;
          lanes = None;
          shards = 1;
        }
    with
    | Ok cells -> cells
    | Error reason ->
      Printf.eprintf "avis: %s\n" reason;
      exit Cmd.Exit.cli_error
  in
  let journal = Option.map (fun path -> Run_journal.open_ path) journal_path in
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Avis_util.Pool.jobs_of_env ())
  in
  Printf.printf
    "hunting with %s on %s / %s (budget %.0f s wall-clock each, %d domain(s))...\n%!"
    (String.concat ", " approaches)
    policy.Avis_firmware.Policy.name workload.Workload.name budget jobs;
  let results =
    Campaign.run_cells ?journal ~jobs
      (List.map
         (fun (c : Avis_server.Worker.cell) ->
           (c.Avis_server.Worker.config, c.approach, c.strategy))
         cells)
  in
  List.iter2
    (fun (c : Avis_server.Worker.cell) (outcome, _) ->
      let name = c.Avis_server.Worker.approach in
      match outcome with
      | Campaign.Failed e ->
        print_quarantined name ~code:e.Campaign.code ~attempts:1
          ~message:e.Campaign.message
      | Campaign.Memo record ->
        print_record ~verbose name record;
        if artefacts <> None then
          Printf.eprintf
            "[avis] %s: served from the journal, whose records carry no \
             profile; rerun without --journal to write artefacts\n\
             %!"
            name
      | Campaign.Live (result, record) -> (
        print_record ~verbose name record;
        match artefacts with
        | None -> ()
        | Some dir ->
          let base =
            Filename.concat dir
              (policy.Avis_firmware.Policy.name ^ "-" ^ workload.Workload.name
             ^ "-" ^ name)
          in
          Export.write_file ~path:(base ^ "-campaign.json")
            (Avis_util.Json.to_string_pretty (Export.campaign_to_json result));
          Export.write_file ~path:(base ^ "-modes.dot")
            (Export.mode_graph_to_dot (Monitor.graph result.Campaign.profile));
          Printf.printf "artefacts written under %s\n" dir))
    cells results;
  (match results with
  | [] | [ _ ] -> ()
  | _ -> Avis_util.Metrics.summary (List.map snd results));
  (match trace with
  | None -> ()
  | Some path ->
    Avis_util.Trace.write_chrome ~path;
    Printf.printf
      "trace: wrote %s (%d events; open in https://ui.perfetto.dev or \
       chrome://tracing)\n"
      path
      (Avis_util.Trace.event_count ());
    print_string (Avis_util.Table.render (Avis_util.Trace.summary_table ()));
    print_newline ());
  if Campaign.interrupted () then begin
    prerr_endline "[avis] interrupted: partial results above";
    exit exit_interrupted
  end

let hunt_cmd =
  let approach =
    Arg.(value & opt string "avis"
         & info [ "a"; "approach" ] ~docv:"APPROACHES"
             ~doc:"Comma-separated search strategies \
                   (avis|strat-bfi|bfi|random|dfs|bfs). Each runs as its own \
                   campaign with its own budget and a seed derived from \
                   --seed and the cell's labels.")
  in
  let budget =
    Arg.(value & opt float 1200.0
         & info [ "b"; "budget" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget in seconds (the paper uses 7200).")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Campaigns to run in parallel (domains). Defaults to \
                   \\$AVIS_JOBS, then to the hardware's recommendation. \
                   Results do not depend on N.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every finding.")
  in
  let artefacts =
    Arg.(value & opt (some string) None
         & info [ "artefacts" ] ~docv:"DIR"
             ~doc:"Write the campaign result (JSON) and mode graph (DOT) under this directory.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record every campaign, simulation, cache serve and \
                   search decision as spans, and write them to FILE in \
                   Chrome trace format (open in chrome://tracing or \
                   https://ui.perfetto.dev); a per-span summary table is \
                   printed too.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Resumable run journal (JSONL). Completed cells found in \
                   the journal are served as memos instead of re-running; \
                   newly completed cells are appended. A journal written by \
                   a different build of this binary is renamed aside and \
                   started fresh.")
  in
  Cmd.v
    (Cmd.info "hunt" ~doc:"Run model-checking campaigns against the firmware.")
    Term.(const hunt $ firmware_arg $ workload_arg $ seed_arg $ approach $ budget $ jobs $ verbose $ artefacts $ trace $ journal)

(* huntd / submit / watch *)

let socket_arg =
  Arg.(value & opt string "avis-huntd.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"The hunt daemon's Unix-domain socket.")

let connect_daemon socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "avis: cannot connect to the daemon at %s: %s\n"
       socket_path (Unix.error_message e);
     exit Cmd.Exit.some_error);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let submit policy workload seed approaches budget verbose socket =
  let approaches = approach_list approaches in
  let ic, oc = connect_daemon socket in
  output_string oc
    (Avis_server.Wire.render_request
       (Avis_server.Wire.Submit
          {
            Avis_server.Wire.firmware = policy.Avis_firmware.Policy.name;
            workload = workload.Workload.name;
            approaches;
            budget_s = budget;
            seed;
            lanes = None;
            shards = 1;
          })
    ^ "\n");
  flush oc;
  Printf.printf
    "submitting %s on %s / %s (budget %.0f s wall-clock each)...\n%!"
    (String.concat ", " approaches)
    policy.Avis_firmware.Policy.name workload.Workload.name budget;
  (* Stream: metrics lines relay to stderr (where `hunt` emits its own),
     cell results collect here and print on Done in the order of the
     labels the daemon accepted, one per approach. *)
  let results = Hashtbl.create 8 in
  let rec loop accepted =
    match input_line ic with
    | exception End_of_file ->
      prerr_endline "[avis] submit: daemon closed the connection mid-hunt";
      exit Cmd.Exit.some_error
    | line ->
      if Avis_server.Wire.is_metrics_line line then begin
        Printf.eprintf "%s\n%!" line;
        loop accepted
      end
      else (
        let ours req = Option.map fst accepted = Some req in
        match Avis_server.Wire.parse_response line with
        | Error e ->
          Printf.eprintf "[avis] submit: %s\n%!" e;
          loop accepted
        | Ok (Avis_server.Wire.Rejected { reason }) ->
          Printf.eprintf "avis: daemon rejected the hunt: %s\n" reason;
          exit Cmd.Exit.cli_error
        | Ok (Avis_server.Wire.Accepted { req; cells }) ->
          loop (Some (req, cells))
        | Ok (Avis_server.Wire.Cell { req; label; status; _ }) when ours req ->
          Hashtbl.replace results label status;
          loop accepted
        | Ok (Avis_server.Wire.Done { req; retries; quarantined })
          when ours req ->
          (retries, quarantined, Option.fold ~none:[] ~some:snd accepted)
        | Ok _ -> loop accepted)
  in
  let retries, quarantined, labels = loop None in
  List.iter2
    (fun name label ->
      match Hashtbl.find_opt results label with
      | Some (Avis_server.Wire.Cell_done record | Avis_server.Wire.Cell_memo record)
        ->
        print_record ~verbose name record
      | Some (Avis_server.Wire.Cell_quarantined { code; message; attempts }) ->
        print_quarantined name ~code ~attempts ~message
      | None -> Printf.printf "%s: no result reported\n" name)
    approaches labels;
  if retries > 0 || quarantined > 0 then
    Printf.eprintf
      "[avis] submit: daemon recovered from %d lost worker(s); %d cell(s) \
       quarantined\n%!"
      retries quarantined

let submit_cmd =
  let approach =
    Arg.(value & opt string "avis"
         & info [ "a"; "approach" ] ~docv:"APPROACHES"
             ~doc:"Comma-separated search strategies \
                   (avis|strat-bfi|bfi|random|dfs|bfs), one daemon cell \
                   each. Seeds derive from --seed and the cell's labels \
                   exactly as `hunt` derives them.")
  in
  let budget =
    Arg.(value & opt float 1200.0
         & info [ "b"; "budget" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget in seconds per cell.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every finding.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a hunt to a running daemon and stream its progress. \
             Results are byte-identical to `hunt` of the same request.")
    Term.(const submit $ firmware_arg $ workload_arg $ seed_arg $ approach
          $ budget $ verbose $ socket_arg)

let watch socket =
  let ic, oc = connect_daemon socket in
  output_string oc
    (Avis_server.Wire.render_request Avis_server.Wire.Watch ^ "\n");
  flush oc;
  Printf.eprintf "[avis] watching %s (^C to stop)\n%!" socket;
  try
    while true do
      Printf.printf "%s\n%!" (input_line ic)
    done
  with End_of_file -> prerr_endline "[avis] watch: daemon closed the connection"

let watch_cmd =
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Subscribe to a running daemon's full metrics and result \
             stream (every request, newline-delimited, to stdout).")
    Term.(const watch $ socket_arg)

(* replay *)

let replay_cmd_run policy workload seed =
  let config =
    {
      (Campaign.default_config policy workload) with
      Campaign.budget_s = 2400.0;
      seed;
    }
  in
  Printf.printf "hunting until the first unsafe condition...\n%!";
  let result =
    Campaign.run ~stop_when:(fun _ -> true) config ~strategy:(fun ctx -> Sabre.make ctx)
  in
  match result.Campaign.findings with
  | [] -> Printf.printf "no unsafe condition found within the budget\n"
  | finding :: _ ->
    let report = finding.Campaign.report in
    Printf.printf "found: %s\n" (Report.describe report);
    Printf.printf "replaying under a different nondeterminism seed...\n%!";
    let replayed =
      Replay.replay ~config ~profile:result.Campaign.profile ~seed:(seed + 500)
        report
    in
    Printf.printf "replay %s: %s\n"
      (if replayed.Replay.reproduced then "REPRODUCED the unsafe condition"
       else "did not reproduce")
      (match replayed.Replay.verdict with
      | Monitor.Unsafe v -> Monitor.describe v
      | Monitor.Safe -> "run judged safe")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Find one unsafe condition, then replay it by mode-relative offsets.")
    Term.(const replay_cmd_run $ firmware_arg $ workload_arg $ seed_arg)

(* selftest *)

let selftest soak_minutes =
  match soak_minutes with
  | Some minutes ->
    Printf.printf
      "soaking: looping a fixed mini campaign under rotating seeds for \
       %.1f min...\n%!"
      minutes;
    let s =
      Selftest.soak ~minutes
        ~progress:(fun i -> Printf.eprintf "[avis] soak: iteration %d done\n%!" i)
        ()
    in
    if s.Selftest.drift = [] then
      Printf.printf "soak: %d iterations, no drift\n" s.Selftest.iterations
    else begin
      Printf.printf "soak: %d iterations, %d DRIFT event(s):\n"
        s.Selftest.iterations
        (List.length s.Selftest.drift);
      List.iter (fun d -> Printf.printf "  %s\n" d) s.Selftest.drift;
      exit 1
    end
  | None ->
    let reports =
      List.map
        (fun (c : Selftest.check) ->
          Printf.eprintf "[avis] selftest: running %s...\n%!" c.Selftest.code;
          Selftest.run_check c)
        (Selftest.checks ())
    in
    print_string (Avis_util.Table.render (Selftest.table reports));
    print_newline ();
    if Selftest.all_passed reports then
      Printf.printf "selftest: all %d checks passed\n" (List.length reports)
    else begin
      Printf.printf "selftest: FAILED (%s)\n"
        (String.concat ", "
           (List.filter_map
              (fun (r : Selftest.report) ->
                if r.Selftest.passed then None else Some r.Selftest.code)
              reports));
      exit 1
    end

let selftest_cmd =
  let soak =
    Arg.(value & opt (some float) None
         & info [ "soak" ] ~docv:"MINUTES"
             ~doc:"Instead of the staged checks, loop a small fixed campaign \
                   under rotating seeds for this many minutes and report any \
                   run-to-run drift in outcome fingerprints.")
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:"Run the staged burn-in diagnostics (determinism, snapshots, \
             store, cache, pool, allocation) and exit non-zero on any \
             failure.")
    Term.(const selftest $ soak)

(* study *)

let study () =
  Printf.printf "Bug study over %d pruned reports (reproducing §III):\n\n"
    Avis_bugstudy.Bugstudy.total;
  Printf.printf "Finding 1: sensor bugs are %.0f%% of bugs but %.0f%% of crash bugs\n"
    (100.0 *. Avis_bugstudy.Bugstudy.fraction_by_cause
                Avis_bugstudy.Bugstudy.Sensor_fault)
    (100.0 *. Avis_bugstudy.Bugstudy.crash_fraction_by_cause
                Avis_bugstudy.Bugstudy.Sensor_fault);
  Printf.printf "Finding 2: %.0f%% of sensor bugs reproduce under default settings\n"
    (100.0 *. Avis_bugstudy.Bugstudy.sensor_default_reproducible_fraction);
  Printf.printf "Finding 3: %.0f%% of sensor bugs have serious symptoms\n"
    (100.0 *. Avis_bugstudy.Bugstudy.sensor_serious_fraction);
  Printf.printf "(semantic bugs are %.0f%% asymptomatic)\n"
    (100.0 *. Avis_bugstudy.Bugstudy.semantic_asymptomatic_fraction)

let study_cmd =
  Cmd.v (Cmd.info "study" ~doc:"Print the §III bug-study findings.")
    Term.(const study $ const ())

(* bugs *)

let bugs () =
  List.iter
    (fun id ->
      let info = Avis_firmware.Bug.info id in
      Printf.printf "%-10s %-9s %-15s %-13s %-28s %s\n" info.Avis_firmware.Bug.report
        (Avis_firmware.Bug.firmware_name info.Avis_firmware.Bug.firmware)
        (Avis_firmware.Bug.symptom_to_string info.Avis_firmware.Bug.symptom)
        (Avis_sensors.Sensor.kind_to_string info.Avis_firmware.Bug.sensor)
        info.Avis_firmware.Bug.window_label
        (if info.Avis_firmware.Bug.known then "(known, re-insertable)" else "(unknown)"))
    Avis_firmware.Bug.all

let bugs_cmd =
  Cmd.v (Cmd.info "bugs" ~doc:"List the reproduced bug catalogue.")
    Term.(const bugs $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "avis" ~version:"1.0.0"
             ~doc:"Avis: in-situ model checking for unmanned aerial vehicles")
          [
            fly_cmd; hunt_cmd; Huntd_cmd.cmd; submit_cmd; watch_cmd;
            replay_cmd; selftest_cmd; study_cmd; bugs_cmd;
          ]))
