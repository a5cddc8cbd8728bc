(* Unattended operation: the resumable run journal (crash-safe JSONL,
   torn-line recovery, stale-fingerprint invalidation, campaign memos),
   cell quarantine, and the cooperative interrupt flag. *)

open Avis_firmware
open Avis_core

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let temp_counter = ref 0

let with_journal_path f =
  incr temp_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "avis-test-journal-%d-%d.jsonl" (Unix.getpid ())
         !temp_counter)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".stale" ])
    (fun () -> f path)

let sample_record ~key =
  {
    Run_journal.key;
    label = "avis/ArduPilot/quickstart";
    simulations = 17;
    inferences = 3;
    spent_bits = Int64.bits_of_float 123.456;
    elapsed_bits = Some (Int64.bits_of_float 0.75);
    findings =
      [
        {
          Run_journal.simulation_index = 4;
          description = "safety: ground impact (14.38 m/s) at t=6.9s";
          bucket = "Takeoff";
          bugs = [ "APM-16021"; "APM-16027" ];
        };
        {
          Run_journal.simulation_index = 9;
          description = "liveliness violation at t=3.7s";
          bucket = "Land";
          bugs = [];
        };
      ];
  }

let small_config () =
  {
    (Campaign.default_config Policy.apm Workload.quickstart) with
    Campaign.budget_s = 60.0;
    seed = 7;
  }

let sabre ctx = Sabre.make ctx

(* ------------------------------------------------------------------ *)
(* Journal file format                                                  *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  with_journal_path @@ fun path ->
  let j = Run_journal.open_ ~fingerprint:"fp-a" path in
  let key = Run_journal.key ~fingerprint:"fp-a" ~config_bytes:"cfg" in
  Alcotest.(check bool) "empty journal serves nothing" true
    (Run_journal.find j ~key = None);
  let r = sample_record ~key in
  Run_journal.record_complete j r;
  Alcotest.(check bool) "served in-process" true
    (Run_journal.find j ~key = Some r);
  let j2 = Run_journal.open_ ~fingerprint:"fp-a" path in
  Alcotest.(check int) "loaded on reopen" 1 (Run_journal.completed_count j2);
  match Run_journal.find j2 ~key with
  | None -> Alcotest.fail "record lost across reopen"
  | Some r' ->
    Alcotest.(check bool) "bit-identical across reopen" true (r' = r);
    Alcotest.(check (float 0.0)) "spent seconds decode by bits" 123.456
      (Run_journal.spent_s r')

let test_journal_torn_line () =
  with_journal_path @@ fun path ->
  let j = Run_journal.open_ ~fingerprint:"fp-a" path in
  let key1 = Run_journal.key ~fingerprint:"fp-a" ~config_bytes:"one" in
  Run_journal.record_complete j (sample_record ~key:key1);
  (* A crash mid-append leaves a torn, newline-less trailing line. *)
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"key\":\"deadbeef\",\"label\":\"torn";
  close_out oc;
  let j2 = Run_journal.open_ ~fingerprint:"fp-a" path in
  Alcotest.(check int) "torn line skipped, rest intact" 1
    (Run_journal.completed_count j2);
  Alcotest.(check bool) "intact record still served" true
    (Run_journal.find j2 ~key:key1 <> None);
  (* The next append must terminate the torn line first, or it would
     corrupt itself by concatenation. *)
  let key2 = Run_journal.key ~fingerprint:"fp-a" ~config_bytes:"two" in
  Run_journal.record_complete j2 (sample_record ~key:key2);
  let j3 = Run_journal.open_ ~fingerprint:"fp-a" path in
  Alcotest.(check int) "append after torn line is clean" 2
    (Run_journal.completed_count j3);
  Alcotest.(check bool) "appended record served" true
    (Run_journal.find j3 ~key:key2 <> None)

let test_journal_stale_fingerprint () =
  with_journal_path @@ fun path ->
  let j = Run_journal.open_ ~fingerprint:"build-a" path in
  let key = Run_journal.key ~fingerprint:"build-a" ~config_bytes:"cfg" in
  Run_journal.record_complete j (sample_record ~key);
  (* A rebuilt binary must not serve the old build's memos. *)
  let j2 = Run_journal.open_ ~fingerprint:"build-b" path in
  Alcotest.(check int) "no stale memos loaded" 0
    (Run_journal.completed_count j2);
  Alcotest.(check bool) "no stale memos served" true
    (Run_journal.find j2 ~key = None);
  Alcotest.(check bool) "stale journal preserved aside" true
    (Sys.file_exists (path ^ ".stale"));
  let key_b = Run_journal.key ~fingerprint:"build-b" ~config_bytes:"cfg" in
  Run_journal.record_complete j2 (sample_record ~key:key_b);
  let j3 = Run_journal.open_ ~fingerprint:"build-b" path in
  Alcotest.(check int) "fresh journal usable after invalidation" 1
    (Run_journal.completed_count j3)

let test_journal_interrupted_marker () =
  with_journal_path @@ fun path ->
  let j = Run_journal.open_ ~fingerprint:"fp" path in
  let key = Run_journal.key ~fingerprint:"fp" ~config_bytes:"cfg" in
  Run_journal.record_interrupted j ~key ~label:"cell";
  let j2 = Run_journal.open_ ~fingerprint:"fp" path in
  Alcotest.(check bool) "incomplete marker never served" true
    (Run_journal.find j2 ~key = None);
  Alcotest.(check int) "marker counted" 1 (Run_journal.interrupted_count j2);
  Alcotest.(check int) "not counted complete" 0
    (Run_journal.completed_count j2)

let test_journal_key_sensitivity () =
  let key = Run_journal.key in
  Alcotest.(check bool) "config changes the key" true
    (key ~fingerprint:"fp" ~config_bytes:"a"
    <> key ~fingerprint:"fp" ~config_bytes:"b");
  Alcotest.(check bool) "fingerprint changes the key" true
    (key ~fingerprint:"fp1" ~config_bytes:"a"
    <> key ~fingerprint:"fp2" ~config_bytes:"a");
  Alcotest.(check bool) "key is deterministic" true
    (key ~fingerprint:"fp" ~config_bytes:"a"
    = key ~fingerprint:"fp" ~config_bytes:"a")

let test_journal_elapsed_roundtrip () =
  with_journal_path @@ fun path ->
  let j = Run_journal.open_ ~fingerprint:"fp" path in
  let key_with = Run_journal.key ~fingerprint:"fp" ~config_bytes:"with" in
  let key_without = Run_journal.key ~fingerprint:"fp" ~config_bytes:"without" in
  (* Not representable in decimal: the duration must survive by bits. *)
  let elapsed = 0.1 +. 0.2 in
  Run_journal.record_complete j
    { (sample_record ~key:key_with) with
      Run_journal.elapsed_bits = Some (Int64.bits_of_float elapsed) };
  Run_journal.record_complete j
    { (sample_record ~key:key_without) with Run_journal.elapsed_bits = None };
  let j2 = Run_journal.open_ ~fingerprint:"fp" path in
  (match Run_journal.find j2 ~key:key_with with
  | None -> Alcotest.fail "record with elapsed lost across reopen"
  | Some r ->
    Alcotest.(check (float 0.0)) "elapsed decodes by bits" elapsed
      (Option.get (Run_journal.elapsed_s r)));
  match Run_journal.find j2 ~key:key_without with
  | None -> Alcotest.fail "record without elapsed lost across reopen"
  | Some r ->
    Alcotest.(check bool) "absent elapsed stays absent" true
      (Run_journal.elapsed_s r = None)

(* A journal written before the elapsed_bits field existed must still
   parse and memo-serve; its records simply carry no duration. *)
let test_journal_old_line_tolerated () =
  with_journal_path @@ fun path ->
  let j = Run_journal.open_ ~fingerprint:"fp" path in
  ignore (j : Run_journal.t);
  let key = Run_journal.key ~fingerprint:"fp" ~config_bytes:"old" in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  Printf.fprintf oc
    "{\"key\":\"%s\",\"label\":\"avis/ArduPilot/quickstart\",\"complete\":true,\
     \"sims\":17,\"infs\":3,\"spent_bits\":\"405edd2f1a9fbe77\",\"findings\":[]}\n"
    key;
  close_out oc;
  let j2 = Run_journal.open_ ~fingerprint:"fp" path in
  Alcotest.(check int) "pre-elapsed line still loads" 1
    (Run_journal.completed_count j2);
  match Run_journal.find j2 ~key with
  | None -> Alcotest.fail "pre-elapsed record not served"
  | Some r ->
    Alcotest.(check (float 0.0)) "spent bits intact" 123.456
      (Run_journal.spent_s r);
    Alcotest.(check bool) "no duration invented" true
      (Run_journal.elapsed_s r = None)

(* ------------------------------------------------------------------ *)
(* Campaign memos                                                       *)
(* ------------------------------------------------------------------ *)

(* [Campaign.run_cell] with its metrics lines discarded. *)
let run_cell_quietly ~journal config ~approach ~strategy =
  fst
    (Campaign.run_cell ~journal
       ~emit:(fun ~event:_ _ -> ())
       config ~approach ~strategy)

let test_campaign_journal_memo () =
  with_journal_path @@ fun path ->
  let j = Run_journal.open_ ~fingerprint:"fp" path in
  let config = small_config () in
  Alcotest.(check bool) "no memo before the run" true
    (Campaign.journal_memo j config ~approach:"avis" = None);
  let live =
    match run_cell_quietly ~journal:j config ~approach:"avis" ~strategy:sabre with
    | Campaign.Live (result, _) -> result
    | Campaign.Memo _ | Campaign.Failed _ ->
      Alcotest.fail "a fresh journal must run the cell live"
  in
  let j2 = Run_journal.open_ ~fingerprint:"fp" path in
  (match Campaign.journal_memo j2 config ~approach:"avis" with
  | None -> Alcotest.fail "completed cell not memoised"
  | Some m ->
    Alcotest.(check int) "simulations" live.Campaign.simulations
      m.Run_journal.simulations;
    Alcotest.(check int) "inferences" live.Campaign.inferences
      m.Run_journal.inferences;
    Alcotest.(check bool) "spent ledger bit-identical" true
      (m.Run_journal.spent_bits
      = Int64.bits_of_float live.Campaign.wall_clock_spent_s);
    Alcotest.(check bool) "live run journals its measured duration" true
      (match Run_journal.elapsed_s m with
      | Some d -> Float.is_finite d && d >= 0.0
      | None -> false);
    Alcotest.(check int) "finding count" (List.length live.Campaign.findings)
      (List.length m.Run_journal.findings);
    List.iter2
      (fun (f : Campaign.finding) (g : Run_journal.finding) ->
        Alcotest.(check int) "finding index" f.Campaign.simulation_index
          g.Run_journal.simulation_index;
        Alcotest.(check string) "finding description"
          (Report.describe f.Campaign.report)
          g.Run_journal.description)
      live.Campaign.findings m.Run_journal.findings);
  (* Another approach label is a different cell, another seed a different
     config: neither may be served this memo. *)
  Alcotest.(check bool) "approach isolates memos" true
    (Campaign.journal_memo j2 config ~approach:"random" = None);
  Alcotest.(check bool) "seed isolates memos" true
    (Campaign.journal_memo j2
       { config with Campaign.seed = config.Campaign.seed + 1 }
       ~approach:"avis"
    = None)

let test_interrupted_run_appends_nothing () =
  with_journal_path @@ fun path ->
  let j = Run_journal.open_ ~fingerprint:"fp" path in
  let config = small_config () in
  Campaign.request_interrupt ();
  Fun.protect ~finally:Campaign.clear_interrupt @@ fun () ->
  let partial =
    match run_cell_quietly ~journal:j config ~approach:"avis" ~strategy:sabre with
    | Campaign.Live (result, _) -> result
    | Campaign.Memo _ | Campaign.Failed _ ->
      Alcotest.fail "an interrupted cell still returns its partial result"
  in
  Alcotest.(check int) "interrupted before any test simulation" 0
    partial.Campaign.simulations;
  let j2 = Run_journal.open_ ~fingerprint:"fp" path in
  Alcotest.(check int) "interrupted run appended no memo" 0
    (Run_journal.completed_count j2);
  Alcotest.(check bool) "no memo served" true
    (Campaign.journal_memo j2 config ~approach:"avis" = None)

(* [Campaign.run_cell]: the one cell runner. Every emitted snapshot is
   collected so the metrics contract can be checked line by line. *)
let collect_emits () =
  let events = ref [] in
  ( (fun ~event s -> events := (event, s) :: !events),
    fun () ->
      let all = List.rev !events in
      events := [];
      all )

let record_json r = Avis_util.Json.to_string (Run_journal.record_to_json r)

let test_run_cell_live_then_memo () =
  with_journal_path @@ fun path ->
  let config = small_config () in
  let label = Campaign.label_of config ~approach:"avis" in
  let emit, emitted = collect_emits () in
  let run journal =
    Campaign.run_cell ~journal ~emit config ~approach:"avis" ~strategy:sabre
  in
  let live, live_snapshot =
    match run (Run_journal.open_ ~fingerprint:"fp" path) with
    | Campaign.Live (_, record), snapshot -> (record, snapshot)
    | (Campaign.Memo _ | Campaign.Failed _), _ ->
      Alcotest.fail "a fresh journal must run the cell live"
  in
  let events = emitted () in
  let progress, terminal =
    match List.rev events with
    | last :: rest -> (List.rev rest, last)
    | [] -> Alcotest.fail "nothing emitted"
  in
  Alcotest.(check string) "terminal event" "done" (fst terminal);
  Alcotest.(check bool) "returned snapshot is the last emitted" true
    (snd terminal = live_snapshot);
  Alcotest.(check bool) "at least one progress line" true (progress <> []);
  Alcotest.(check bool) "at most 11 progress lines" true
    (List.length progress <= 11);
  let tenths =
    List.map
      (fun (event, (s : Avis_util.Metrics.snapshot)) ->
        Alcotest.(check string) "progress event" "progress" event;
        Alcotest.(check string) "progress label" label s.Avis_util.Metrics.cell;
        int_of_float
          (10.0 *. s.Avis_util.Metrics.spent_s /. s.Avis_util.Metrics.budget_s))
      progress
  in
  Alcotest.(check bool) "strictly increasing budget tenths" true
    (List.sort_uniq compare tenths = tenths);
  Alcotest.(check string) "record label is label_of" label
    live.Run_journal.label;
  Alcotest.(check string) "snapshot cell is the record label"
    live.Run_journal.label live_snapshot.Avis_util.Metrics.cell;
  Alcotest.(check bool) "live record journals its duration" true
    (live.Run_journal.elapsed_bits <> None);
  (* A second call, from a reopened journal, serves the memo. *)
  (match run (Run_journal.open_ ~fingerprint:"fp" path) with
  | Campaign.Memo record, snapshot ->
    Alcotest.(check string) "memo bytes = live bytes, elapsed included"
      (record_json live) (record_json record);
    (match emitted () with
    | [ ("memo", s) ] ->
      Alcotest.(check bool) "returned memo snapshot is the one emitted" true
        (s = snapshot)
    | events ->
      Alcotest.failf "expected exactly one memo event, got %d"
        (List.length events));
    Alcotest.(check string) "memo snapshot cell" label
      snapshot.Avis_util.Metrics.cell;
    Alcotest.(check int) "memo snapshot counts the record's simulations"
      record.Run_journal.simulations snapshot.Avis_util.Metrics.simulations
  | (Campaign.Live _ | Campaign.Failed _), _ ->
    Alcotest.fail "the second call must serve the memo")

let test_run_cell_failure_quarantines () =
  with_journal_path @@ fun path ->
  let journal = Run_journal.open_ ~fingerprint:"fp" path in
  let emit, emitted = collect_emits () in
  let config = { (small_config ()) with Campaign.profiling_runs = 2 } in
  (match
     Campaign.run_cell ~journal ~emit config ~approach:"broken"
       ~strategy:(fun _ -> failwith "strategy broke")
   with
  | Campaign.Failed e, snapshot ->
    Alcotest.(check string) "stable code" "CELL-FAIL" e.Campaign.code;
    (match emitted () with
    | [ ("quarantined", s) ] ->
      Alcotest.(check bool) "returned snapshot is the one emitted" true
        (s = snapshot)
    | events ->
      Alcotest.failf "expected exactly one quarantined event, got %d"
        (List.length events));
    Alcotest.(check bool) "zero counters" true
      ({ snapshot with Avis_util.Metrics.wall_s = 0.0 }
      = {
          Avis_util.Metrics.cell = Campaign.label_of config ~approach:"broken";
          simulations = 0; inferences = 0; spent_s = 0.0;
          budget_s = config.Campaign.budget_s; findings = 0; wall_s = 0.0;
          minor_words = 0.0; major_collections = 0; store_hits = 0;
          store_misses = 0; store_bytes = 0;
          profile = Avis_util.Metrics.No_profile;
        })
  | (Campaign.Live _ | Campaign.Memo _), _ ->
    Alcotest.fail "a raising strategy must quarantine the cell");
  let reopened = Run_journal.open_ ~fingerprint:"fp" path in
  Alcotest.(check int) "nothing journalled" 0
    (Run_journal.completed_count reopened);
  Alcotest.(check int) "no interrupted marker either" 0
    (Run_journal.interrupted_count reopened)

let test_run_cell_interrupted () =
  with_journal_path @@ fun path ->
  let journal = Run_journal.open_ ~fingerprint:"fp" path in
  let emit, _ = collect_emits () in
  let config = small_config () in
  Campaign.request_interrupt ();
  Fun.protect ~finally:Campaign.clear_interrupt (fun () ->
      ignore
        (Campaign.run_cell ~journal ~emit config ~approach:"avis"
           ~strategy:sabre
          : Campaign.cell_outcome * Avis_util.Metrics.snapshot));
  let reopened = Run_journal.open_ ~fingerprint:"fp" path in
  Alcotest.(check bool) "no memo" true
    (Campaign.journal_memo reopened config ~approach:"avis" = None);
  Alcotest.(check int) "no completed record" 0
    (Run_journal.completed_count reopened);
  Alcotest.(check int) "one interrupted marker" 1
    (Run_journal.interrupted_count reopened)

(* Equal keys mean equal records: every cell below runs with the prefix
   cache off and on. Runs that agree on [journal_identity] must produce
   byte-identical journal records, since a memo served under that key
   stands in for any of them; distinct cells must not share a key. *)
let test_equal_keys_equal_records () =
  let record_bytes config ~approach result =
    let r =
      Campaign.record_of_result config ~approach ~fingerprint:"fp" result
    in
    Avis_util.Json.to_string
      (Run_journal.record_to_json { r with Run_journal.elapsed_bits = None })
  in
  let cells =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun approach ->
            List.map
              (fun seed ->
                ( approach,
                  {
                    (Campaign.default_config policy Workload.quickstart) with
                    Campaign.budget_s = 30.0;
                    seed;
                    profiling_runs = 2;
                  } ))
              [ 3; 4 ])
          [ "avis"; "random" ])
      [ Policy.apm; Policy.px4 ]
  in
  let identities =
    List.map
      (fun (approach, config) ->
        let strategy =
          Option.get (Avis_server.Worker.strategy_of_name approach)
        in
        let run prefix_cache =
          let config = { config with Campaign.prefix_cache } in
          let result = Campaign.run config ~strategy in
          ( Campaign.journal_identity config ~approach,
            record_bytes config ~approach result )
        in
        let identity, bytes = run false in
        let identity', bytes' = run true in
        Alcotest.(check string) "equal keys" identity identity';
        Alcotest.(check string) "equal record bytes" bytes bytes';
        identity)
      cells
  in
  Alcotest.(check int) "distinct cells, distinct keys" (List.length cells)
    (List.length (List.sort_uniq compare identities))

(* Every keyed field of [Campaign.config] changes the identity on its own;
   the prefix-cache toggle, which cannot change a result, does not. *)
let test_identity_covers_keyed_fields () =
  let base = small_config () in
  let identity ?(approach = "avis") c = Campaign.journal_identity c ~approach in
  let changes =
    [
      ("policy", { base with Campaign.policy = Policy.px4 });
      ("workload", { base with Campaign.workload = Workload.auto_box });
      ("enabled_bugs", { base with Campaign.enabled_bugs = [] });
      ("budget_s", { base with Campaign.budget_s = base.Campaign.budget_s +. 1.0 });
      ("speedup", { base with Campaign.speedup = base.Campaign.speedup +. 1.0 });
      ("seed", { base with Campaign.seed = base.Campaign.seed + 1 });
      ( "profiling_runs",
        { base with Campaign.profiling_runs = base.Campaign.profiling_runs + 1 }
      );
    ]
  in
  List.iter
    (fun (field, changed) ->
      Alcotest.(check bool) (field ^ " is keyed") true
        (identity changed <> identity base))
    changes;
  Alcotest.(check bool) "approach is keyed" true
    (identity ~approach:"random" base <> identity base);
  Alcotest.(check string) "prefix_cache is not keyed" (identity base)
    (identity
       { base with Campaign.prefix_cache = not base.Campaign.prefix_cache })

(* A failed journal append quarantines the cell as an I/O failure after
   one campaign: a cell's inputs fix its campaign, so flying it again
   would replay the same run into the same broken journal. *)
let test_failed_append_quarantines_once () =
  with_journal_path @@ fun path ->
  let journal = Run_journal.open_ ~fingerprint:"fp" path in
  (* The journal is open; its file then becomes a directory, which no
     append can open. *)
  Sys.remove path;
  Unix.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> Unix.rmdir path) @@ fun () ->
  let emit, emitted = collect_emits () in
  let instantiations = ref 0 in
  let strategy ctx =
    incr instantiations;
    sabre ctx
  in
  (match
     Campaign.run_cell ~journal ~emit (small_config ()) ~approach:"avis"
       ~strategy
   with
  | Campaign.Failed e, _ ->
    Alcotest.(check string) "stable code" "CELL-IO" e.Campaign.code
  | (Campaign.Live _ | Campaign.Memo _), _ ->
    Alcotest.fail "an append into a directory must quarantine the cell");
  Alcotest.(check (list string)) "one terminal quarantined event"
    [ "quarantined" ]
    (List.filter (fun e -> e <> "progress") (List.map fst (emitted ())));
  Alcotest.(check int) "the campaign ran once" 1 !instantiations

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "avis_unattended"
    [
      ( "journal",
        [
          Alcotest.test_case "round-trip across reopen" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "torn trailing line recovered" `Quick
            test_journal_torn_line;
          Alcotest.test_case "stale fingerprint invalidates loudly" `Quick
            test_journal_stale_fingerprint;
          Alcotest.test_case "interrupted marker never served" `Quick
            test_journal_interrupted_marker;
          Alcotest.test_case "key sensitivity" `Quick
            test_journal_key_sensitivity;
          Alcotest.test_case "elapsed duration round-trips by bits" `Quick
            test_journal_elapsed_roundtrip;
          Alcotest.test_case "pre-elapsed journal lines tolerated" `Quick
            test_journal_old_line_tolerated;
        ] );
      ( "campaign memos",
        [
          Alcotest.test_case "memo equals the live run" `Slow
            test_campaign_journal_memo;
          Alcotest.test_case "interrupted run appends nothing" `Slow
            test_interrupted_run_appends_nothing;
          Alcotest.test_case "run_cell: live, then the same bytes as a memo"
            `Slow test_run_cell_live_then_memo;
          Alcotest.test_case "run_cell: a failing cell is quarantined" `Slow
            test_run_cell_failure_quarantines;
          Alcotest.test_case "run_cell: an interrupted cell is marked" `Slow
            test_run_cell_interrupted;
          Alcotest.test_case
            "run_cell: a failed append quarantines after one campaign" `Slow
            test_failed_append_quarantines_once;
          Alcotest.test_case "equal keys mean equal records" `Slow
            test_equal_keys_equal_records;
          Alcotest.test_case "identity covers every keyed field" `Quick
            test_identity_covers_keyed_fields;
        ] );
    ]
