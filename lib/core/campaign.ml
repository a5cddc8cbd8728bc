open Avis_firmware
open Avis_sitl

type config = {
  policy : Policy.t;
  workload : Workload.t;
  enabled_bugs : Bug.id list;
  budget_s : float;
  speedup : float;
  seed : int;
  profiling_runs : int;
  prefix_cache : bool;
}

let default_config policy workload =
  {
    policy;
    workload;
    enabled_bugs = Bug.unknown_bugs policy.Policy.firmware;
    budget_s = 7200.0;
    speedup = 6.0;
    seed = 1;
    profiling_runs = 8;
    prefix_cache = true;
  }

type finding = { report : Report.t; simulation_index : int }

type progress = {
  simulations : int;
  inferences : int;
  spent_s : float;
  budget_s : float;
  findings : int;
  minor_words : float;
  major_collections : int;
  store_hits : int;
  store_misses : int;
  store_bytes : int;
  profile_source : Avis_util.Metrics.profile_source;
}

type result = {
  approach : string;
  findings : finding list;
  simulations : int;
  inferences : int;
  wall_clock_spent_s : float;
  profile : Monitor.profile;
  profile_source : Avis_util.Metrics.profile_source;
  cache_stats : Prefix_cache.stats option;
  minor_words : float;
  major_collections : int;
}

(* ------------------------------------------------------------------ *)
(* Unattended operation: interrupt and quarantine.                    *)
(* ------------------------------------------------------------------ *)

(* Process-wide cooperative interrupt: a SIGINT handler (or test) raises
   the flag, and every in-flight campaign treats it like an early stop at
   its next scheduling boundary — partial findings and ledger are
   returned, nothing is torn mid-judgement, and no journal record is
   appended (an interrupted cell's counts are not a completed cell's). *)
let interrupt_flag = Atomic.make false
let request_interrupt () = Atomic.set interrupt_flag true
let clear_interrupt () = Atomic.set interrupt_flag false
let interrupted () = Atomic.get interrupt_flag

type cell_error = { code : string; message : string }
type 'a supervised = Completed of 'a | Quarantined of cell_error

(* Process-lifetime count of quarantined cells, mirrored onto the trace
   as a counter track so an unattended run's failures show in Perfetto. *)
let quarantined_total = Atomic.make 0

(* A cell's campaign depends only on its declared inputs, so a failure
   replays on every attempt: a cell runs once, and whatever escapes it
   quarantines the cell under a stable code instead of aborting the
   caller's matrix. *)
let supervised ~label f =
  match f () with
  | v -> Completed v
  | exception e ->
    let code =
      match e with
      | Sys_error _ | Unix.Unix_error _ -> "CELL-IO"
      | Failure _ -> "CELL-FAIL"
      | _ -> "CELL-EXN"
    in
    let message = Printexc.to_string e in
    Atomic.incr quarantined_total;
    Avis_util.Trace.counter "cell.quarantined"
      (float_of_int (Atomic.get quarantined_total));
    Printf.eprintf "[avis] warning: cell %s quarantined (%s: %s)\n%!" label
      code message;
    Quarantined { code; message }

(* The simulator's hard cap on one run, and therefore the most any run
   can charge to the budget. The affordability check below uses the same
   bound, so a run that starts is guaranteed to fit. *)
let max_sim_duration (config : config) =
  config.workload.Workload.nominal_duration +. 60.0

let sim_cfg_of (config : config) ~seed =
  let base = Sim.default_config config.policy in
  {
    base with
    Sim.enabled_bugs = config.enabled_bugs;
    seed;
    max_duration = max_sim_duration config;
    environment = config.workload.Workload.environment ();
  }

let sim_config (config : config) ~seed ~scenario =
  Sim.create ~plan:(Scenario.to_plan scenario)
    ~link_outages:(Scenario.link_outages scenario)
    (sim_cfg_of config ~seed)

let execute_run config ~seed ~scenario =
  let sim = sim_config config ~seed ~scenario in
  let passed = Workload.execute config.workload sim in
  Sim.outcome sim ~workload_passed:passed

(* The profile's identity in the checkpoint store, to which the store
   adds the code fingerprint: the profiling simulator config (run [i]
   flies seed [seed + i]), the workload and the number of runs. The config
   is destructured exhaustively, as in [journal_identity] below, so a
   field added to [config] does not compile until it is keyed here or
   bound to [_] with a reason. *)
let profile_identity (config : config) =
  let[@warning "+9"] {
    (* Keyed through the profiling simulator config encoded first. *)
    policy = _;
    enabled_bugs = _;
    workload;
    seed;
    profiling_runs;
    (* Profiling runs fly before the search and charge no budget. *)
    budget_s = _;
    speedup = _;
    (* Profiling runs are flown cold with the cache on or off. *)
    prefix_cache = _;
  } =
    config
  in
  let b = Buffer.create 256 in
  Sim.encode_config b (sim_cfg_of config ~seed);
  Buffer.add_char b '\x00';
  Buffer.add_string b workload.Workload.name;
  Buffer.add_char b '\x00';
  Buffer.add_int64_le b (Int64.of_int profiling_runs);
  Buffer.contents b

(* Process-lifetime counts of profiles the store served or could not
   serve, kept apart from the prefix cache's checkpoint counts. *)
let profile_hits_total = Atomic.make 0
let profile_misses_total = Atomic.make 0

let count_profile counter name =
  Atomic.incr counter;
  Avis_util.Trace.counter name (float_of_int (Atomic.get counter))

(* What a cell takes from its profiling runs: the monitor's profile, and
   the first run's transitions and duration, which are all that its search
   context reads. A [.prof] file holds exactly this. *)
type built_profile = {
  profile : Monitor.profile;
  transitions : Avis_hinj.Hinj.transition list;
  duration : float;
}

let encode_built_profile =
  Avis_util.Codec.to_string (fun b built ->
      let[@warning "+9"] { profile; transitions; duration } = built in
      Monitor.encode b profile;
      Avis_util.Codec.w_list b Avis_hinj.Hinj.encode_transition transitions;
      Avis_util.Codec.w_f64 b duration)

let decode_built_profile =
  Avis_util.Codec.of_string (fun r ->
      let profile = Monitor.decode r in
      let transitions = Avis_util.Codec.r_list r Avis_hinj.Hinj.decode_transition in
      let duration = Avis_util.Codec.r_f64 r in
      { profile; transitions; duration })

(* The stored profile, when the file is there, decodes, and was built from
   the keyed number of runs. A file that does not decode, or was built
   from another number of runs, is corrupt: the store deletes it, and the
   profile flown again takes its place. *)
let stored_profile store ~key (config : config) =
  let decode payload =
    let built = decode_built_profile payload in
    if Distance.runs (Monitor.normalisers built.profile) <> config.profiling_runs
    then Avis_util.Codec.corrupt "profile built from another number of runs";
    built
  in
  let served =
    Avis_util.Trace.span ~cat:"cache" "store.profile" @@ fun () ->
    Checkpoint_store.find_profile store ~key ~decode
  in
  (match served with
  | Some _ -> count_profile profile_hits_total "store.profile_hits"
  | None -> count_profile profile_misses_total "store.profile_misses");
  served

(* Fly the profiling runs, check that each completed cleanly, and build
   the profile. *)
let fly_profile (config : config) =
  let outcomes =
    List.init config.profiling_runs (fun i ->
        execute_run config ~seed:(config.seed + i) ~scenario:Scenario.empty)
  in
  List.iteri
    (fun i o ->
      if (not o.Sim.workload_passed) || o.Sim.crash <> None then
        failwith
          (Printf.sprintf
             "profiling run %d of %s on %s did not complete cleanly" i
             config.workload.Workload.name config.policy.Policy.name))
    outcomes;
  let first = List.hd outcomes in
  {
    profile = Monitor.build_profile outcomes;
    transitions = first.Sim.transitions;
    duration = first.Sim.duration;
  }

(* Served or flown, a cell gets one profile and one search context. A
   flown profile goes to the store once its runs pass the check. *)
let profile_and_context ?store config =
  Avis_util.Trace.span ~cat:"campaign" "campaign.profile" @@ fun () ->
  let key = profile_identity config in
  let served =
    Option.bind store (fun store -> stored_profile store ~key config)
  in
  let built, source =
    match served with
    | Some built -> (built, Avis_util.Metrics.Profile_store)
    | None ->
      let built = fly_profile config in
      Option.iter
        (fun store ->
          Avis_util.Trace.span ~cat:"cache" "store.profile" @@ fun () ->
          Checkpoint_store.put_profile store ~key
            ~payload:(lazy (encode_built_profile built)))
        store;
      (built, Avis_util.Metrics.Profile_run)
  in
  let rng = Avis_util.Rng.create (config.seed * 7919) in
  let ctx =
    Search.context_of_run ~rng ~transitions:built.transitions
      ~duration:built.duration
  in
  (built.profile, ctx, source)

(* The cell's checkpoint store, under [AVIS_STORE_DIR] when that is set:
   opened once, before profiling, for the profile and the prefix cache
   alike. A cell without the prefix cache has no store. *)
let open_store (config : config) =
  match Sys.getenv_opt "AVIS_STORE_DIR" with
  | Some dir when dir <> "" && config.prefix_cache ->
    Some
      ( Avis_util.Trace.span ~cat:"cache" "store.open" @@ fun () ->
        Checkpoint_store.create ~dir () )
  | Some _ | None -> None

(* Canonical identity of one campaign cell, the config half of its
   journal key: the exact test-run simulator configuration (policy, bugs,
   test seed, duration cap, environment — everything Sim.encode_config
   covers), the workload, the budget parameters by their IEEE-754 bits,
   and the approach label. Two invocations agree on
   these bytes exactly when their campaigns are bit-identical, which is
   when serving a memo is sound. The config is destructured exhaustively
   (warning 9 is an error here in every build profile), so a field added
   to [config] does not compile until it is keyed here or bound to [_]
   with a reason. *)
let journal_identity (config : config) ~approach =
  let[@warning "+9"] {
    (* Keyed through the test-run simulator config encoded first. *)
    policy = _;
    enabled_bugs = _;
    workload;
    budget_s;
    speedup;
    seed;
    profiling_runs;
    (* Outcomes and ledger are bit-identical with the cache on or off,
       which the CACHE-ID selftest checks. *)
    prefix_cache = _;
  } =
    config
  in
  let b = Buffer.create 256 in
  Sim.encode_config b (sim_cfg_of config ~seed:(seed + 1000));
  Buffer.add_char b '\x00';
  Buffer.add_string b workload.Workload.name;
  Buffer.add_char b '\x00';
  Buffer.add_int64_le b (Int64.bits_of_float budget_s);
  Buffer.add_int64_le b (Int64.bits_of_float speedup);
  Buffer.add_int64_le b (Int64.of_int seed);
  Buffer.add_int64_le b (Int64.of_int profiling_runs);
  Buffer.add_string b approach;
  Buffer.contents b

let journal_key journal (config : config) ~approach =
  Run_journal.key
    ~fingerprint:(Run_journal.fingerprint journal)
    ~config_bytes:(journal_identity config ~approach)

let journal_memo journal config ~approach =
  Run_journal.find journal ~key:(journal_key journal config ~approach)

let label_of config ~approach =
  Printf.sprintf "%s/%s/%s" approach config.policy.Policy.name
    config.workload.Workload.name

let journal_finding (f : finding) =
  {
    Run_journal.simulation_index = f.simulation_index;
    description = Report.describe f.report;
    bucket = Report.bucket_label (Report.injection_bucket f.report);
    bugs =
      List.map
        (fun id -> (Bug.info id).Bug.report)
        f.report.Report.triggered_bugs;
  }

(* One construction site for the journal's view of a completed campaign:
   [run_cell] builds every journalled and streamed record here, so a
   record the hunt daemon relays to a client is byte-for-byte the record
   a journal would memo-serve. *)
let record_of_result ?elapsed_s (config : config) ~approach ~fingerprint
    (result : result) =
  {
    Run_journal.key =
      Run_journal.key ~fingerprint
        ~config_bytes:(journal_identity config ~approach);
    label = label_of config ~approach;
    simulations = result.simulations;
    inferences = result.inferences;
    spent_bits = Int64.bits_of_float result.wall_clock_spent_s;
    elapsed_bits = Option.map Int64.bits_of_float elapsed_s;
    findings = List.map journal_finding result.findings;
  }

let run ?(stop_when = fun _ -> false) ?(progress = fun (_ : progress) -> ())
    config ~strategy =
  (* One span per campaign: everything a cell does (profiling, search
     decisions, simulation, monitoring) nests under it, which is what lets
     a trace attribute a cell's wall time phase by phase. *)
  Avis_util.Trace.span ~cat:"campaign" "campaign.cell" @@ fun () ->
  (* GC baseline for the cell: progress and result report allocation as
     deltas from here, so cells are comparable regardless of what ran
     before them in the process. Baseline and reading must come from the
     same primitive — [Gc.minor_words] is domain-local while
     [Gc.quick_stat]'s word counts aggregate promoted words across
     domains, and mixing them makes deltas go negative on a parallel
     matrix. *)
  let minor0 = Gc.minor_words () in
  let gc0 = Gc.quick_stat () in
  let gc_minor_words () = Gc.minor_words () -. minor0 in
  let gc_majors () =
    (Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections
  in
  let store = open_store config in
  let profile, ctx, profile_source = profile_and_context ?store config in
  let searcher = strategy ctx in
  let budget = Budget.create ~speedup:config.speedup ~total_s:config.budget_s () in
  let findings = ref [] in
  let stopped = ref false in
  (* Test runs are deterministic: a fixed seed distinct from profiling. *)
  let test_seed = config.seed + 1000 in
  (* Checkpoint runs at the profiled mode transitions (where the strategies
     schedule injections) plus a one-second grid, so faults at observed —
     not just profiled — transition times also land near a snapshot. The
     cache provisions with the exact test config, which is what keeps
     cached outcomes bit-identical to cold ones. *)
  let cache =
    if not config.prefix_cache then None
    else
      let dur = max_sim_duration config in
      let grid = List.init (int_of_float dur) (fun i -> float_of_int (i + 1)) in
      let checkpoint_times =
        List.map (fun (t, _, _) -> t) ctx.Search.transitions
        @ List.filter (fun t -> t < dur) grid
      in
      Some
        (Prefix_cache.create ?store ~workload:config.workload
           ~config:(sim_cfg_of config ~seed:test_seed)
           ~checkpoint_times ())
  in
  let run_scenario scenario =
    Avis_util.Trace.span ~cat:"sim" "campaign.run_scenario" @@ fun () ->
    match cache with
    | Some cache -> Prefix_cache.execute cache ~scenario
    | None -> execute_run config ~seed:test_seed ~scenario
  in
  let report_progress () =
    let store_hits, store_misses, store_bytes =
      match cache with
      | None -> (0, 0, 0)
      | Some c ->
        let s = Prefix_cache.stats c in
        Prefix_cache.(s.store_hits, s.store_misses, s.store_bytes)
    in
    progress
      {
        simulations = Budget.simulations_run budget;
        inferences = Budget.inferences_run budget;
        spent_s = Budget.spent_s budget;
        budget_s = config.budget_s;
        findings = List.length !findings;
        minor_words = gc_minor_words ();
        major_collections = gc_majors ();
        store_hits;
        store_misses;
        store_bytes;
        profile_source;
      }
  in
  while (not !stopped) && (not (Budget.exhausted budget)) && not (interrupted ()) do
    match
      Avis_util.Trace.span ~cat:"search" "search.next" searcher.Search.next
    with
    | Search.Exhausted -> stopped := true
    | Search.Think cost -> Budget.charge_inference budget cost
    | Search.Run (scenario, inference_cost) ->
      if inference_cost > 0.0 then Budget.charge_inference budget inference_cost;
      if
        (* Check against the worst case the simulator could actually
           charge (its max_duration cap), not an optimistic estimate:
           any run that starts is then guaranteed to fit the budget. *)
        not
          (Budget.can_afford_run budget
             ~sim_seconds:(max_sim_duration config))
      then stopped := true
      else begin
        let outcome = run_scenario scenario in
        Budget.charge_simulation budget ~sim_seconds:outcome.Sim.duration;
        let verdict =
          Avis_util.Trace.span ~cat:"campaign" "monitor.check" @@ fun () ->
          Monitor.check profile outcome
        in
        let unsafe = match verdict with Monitor.Unsafe _ -> true | Monitor.Safe -> false in
        (Avis_util.Trace.span ~cat:"search" "search.observe" @@ fun () ->
         searcher.Search.observe scenario
           {
             Search.unsafe;
             observed_transitions =
               List.map (fun tr -> tr.Avis_hinj.Hinj.time) outcome.Sim.transitions;
           });
        (* Filing a finding and reporting progress allocate between one
           scenario and the next: the span charges their time, and any
           collection they trigger, to the cell's trace. *)
        Avis_util.Trace.span ~cat:"campaign" "campaign.bookkeeping" @@ fun () ->
        (match verdict with
        | Monitor.Safe -> ()
        | Monitor.Unsafe violation ->
          Avis_util.Trace.instant ~cat:"campaign" "finding";
          let finding =
            {
              report = Report.make outcome scenario violation;
              simulation_index = Budget.simulations_run budget;
            }
          in
          findings := finding :: !findings;
          if stop_when finding then stopped := true);
        report_progress ()
      end
  done;
  report_progress ();
  {
    approach = searcher.Search.name;
    findings = List.rev !findings;
    simulations = Budget.simulations_run budget;
    inferences = Budget.inferences_run budget;
    wall_clock_spent_s = Budget.spent_s budget;
    profile;
    profile_source;
    cache_stats = Option.map Prefix_cache.stats cache;
    minor_words = gc_minor_words ();
    major_collections = gc_majors ();
  }

let run_supervised ?stop_when ?progress config ~strategy =
  supervised ~label:(label_of config ~approach:"campaign") (fun () ->
      run ?stop_when ?progress config ~strategy)

(* ------------------------------------------------------------------ *)
(* Matrix cells: memo, supervised run, journal, metrics               *)
(* ------------------------------------------------------------------ *)

type cell_outcome =
  | Live of result * Run_journal.record
  | Memo of Run_journal.record
  | Failed of cell_error

(* The one [Metrics.snapshot] construction site: every outcome is first
   reduced to the progress counters it reports. *)
let snapshot_of_progress config ~approach ~wall_s (p : progress) =
  {
    Avis_util.Metrics.cell = label_of config ~approach;
    simulations = p.simulations;
    inferences = p.inferences;
    spent_s = p.spent_s;
    budget_s = p.budget_s;
    findings = p.findings;
    wall_s;
    minor_words = p.minor_words;
    major_collections = p.major_collections;
    store_hits = p.store_hits;
    store_misses = p.store_misses;
    store_bytes = p.store_bytes;
    profile = p.profile_source;
  }

let snapshot (config : config) ~approach ~wall_s outcome =
  let zero : progress =
    {
      simulations = 0; inferences = 0; spent_s = 0.0;
      budget_s = config.budget_s; findings = 0; minor_words = 0.0;
      major_collections = 0; store_hits = 0; store_misses = 0;
      store_bytes = 0; profile_source = Avis_util.Metrics.No_profile;
    }
  in
  snapshot_of_progress config ~approach ~wall_s
    (match outcome with
    | Live (r, _) ->
      let store_hits, store_misses, store_bytes =
        match r.cache_stats with
        | Some s -> Prefix_cache.(s.store_hits, s.store_misses, s.store_bytes)
        | None -> (0, 0, 0)
      in
      {
        zero with
        simulations = r.simulations;
        inferences = r.inferences;
        spent_s = r.wall_clock_spent_s;
        findings = List.length r.findings;
        minor_words = r.minor_words;
        major_collections = r.major_collections;
        store_hits;
        store_misses;
        store_bytes;
        profile_source = r.profile_source;
      }
    | Memo m ->
      (* Nothing ran: no GC or store activity to report. *)
      {
        zero with
        simulations = m.Run_journal.simulations;
        inferences = m.Run_journal.inferences;
        spent_s = Run_journal.spent_s m;
        findings = List.length m.Run_journal.findings;
      }
    | Failed _ -> zero)

let run_cell ?journal
    ?(emit = fun ~event s -> Avis_util.Metrics.emit ~event s) config
    ~approach ~strategy =
  let started = Avis_util.Metrics.now_s () in
  let wall_s () = Avis_util.Metrics.now_s () -. started in
  let outcome =
    match Option.bind journal (fun j -> journal_memo j config ~approach) with
    | Some record -> Memo record
    | None -> (
      (* One progress line per new tenth of the budget, however fast the
         machine: a 16-cell matrix or a busy daemon stays readable. *)
      let last_tenth = ref (-1) in
      let progress (p : progress) =
        let tenth =
          int_of_float (10.0 *. p.spent_s /. Float.max 1e-9 p.budget_s)
        in
        if tenth > !last_tenth then begin
          last_tenth := tenth;
          emit ~event:"progress"
            (snapshot_of_progress config ~approach ~wall_s:(wall_s ()) p)
        end
      in
      let fingerprint =
        Option.fold ~none:"" ~some:Run_journal.fingerprint journal
      in
      (* The journal's one writer. The record is built once, so a live
         cell's record is byte for byte the memo a later call serves,
         measured duration included; an interrupted cell journals no
         record but a marker saying it was cut. *)
      match
        supervised ~label:(label_of config ~approach) (fun () ->
            let result = run ~progress config ~strategy in
            let record =
              record_of_result ~elapsed_s:(wall_s ()) config ~approach
                ~fingerprint result
            in
            (match journal with
            | Some j when interrupted () ->
              Run_journal.record_interrupted j ~key:record.Run_journal.key
                ~label:record.Run_journal.label
            | Some j -> Run_journal.record_complete j record
            | None -> ());
            (result, record))
      with
      | Completed (result, record) -> Live (result, record)
      | Quarantined e -> Failed e)
  in
  let snapshot = snapshot config ~approach ~wall_s:(wall_s ()) outcome in
  emit
    ~event:
      (match outcome with
      | Live _ -> "done"
      | Memo _ -> "memo"
      | Failed _ -> "quarantined")
    snapshot;
  (outcome, snapshot)

let run_cells ?journal ~jobs cells =
  Avis_util.Pool.map ~jobs
    (fun (config, approach, strategy) ->
      run_cell ?journal config ~approach ~strategy)
    cells

(* A stable, platform-independent seed for one (policy, workload,
   approach) cell of a campaign matrix: FNV-1a over the labels, folded
   into a positive int. Sequential and parallel runners derive the same
   seed for the same cell, which is what makes their results
   bit-identical. *)
let cell_seed ?(base = 1) ~policy ~workload ~approach () =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    (Printf.sprintf "%d|%s|%s|%s" base policy workload approach);
  Int64.to_int (Int64.logand !h 0x3FFFFFFFL)

let unsafe_count result = List.length result.findings

let count_by_bucket (findings : Run_journal.finding list) =
  List.map
    (fun bucket ->
      let label = Report.bucket_label bucket in
      ( label,
        List.length
          (List.filter
             (fun (f : Run_journal.finding) -> f.Run_journal.bucket = label)
             findings) ))
    Report.all_buckets

let found_bug result bug =
  List.exists
    (fun f -> List.mem bug f.report.Report.triggered_bugs)
    result.findings

let simulations_until_bug result bug =
  List.fold_left
    (fun acc f ->
      match acc with
      | Some _ -> acc
      | None ->
        if List.mem bug f.report.Report.triggered_bugs then
          Some f.simulation_index
        else None)
    None result.findings
