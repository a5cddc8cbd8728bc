(* Tests for avis_util: the seeded PRNG, statistics helpers and the table
   renderer. *)

open Avis_util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

(* A generator is copied through its encoded state, as every checkpoint
   copies one. *)
let test_rng_copy_independent () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.of_bits (Rng.to_bits a) in
  let va = Rng.bits64 a in
  let vb = Rng.bits64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (Rng.bits64 a);
  Alcotest.(check bool) "copy evolves independently" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  Alcotest.(check bool) "split stream differs from parent" true
    (Rng.bits64 a <> Rng.bits64 b)

(* The stream itself is pinned: every result digest depends on it, and
   the tests above only compare generators with each other. The draws
   are splitmix64 from seed 42; a snapshot round trip through [to_bits]
   and [of_bits], fresh or mid-stream, must resume the same stream. *)
let golden_bits64 =
  [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L;
    0x581CE1FF0E4AE394L ]

let golden_gaussian_bits = 0x3FFBAC69CD4142BFL

let test_rng_golden_stream () =
  let check name rng ~skip =
    Alcotest.(check (list int64)) (name ^ ": bits64")
      (List.filteri (fun i _ -> i >= skip) golden_bits64)
      (List.init (4 - skip) (fun _ -> Rng.bits64 rng));
    Alcotest.(check int64) (name ^ ": gaussian bits") golden_gaussian_bits
      (Int64.bits_of_float (Rng.gaussian rng))
  in
  check "fresh" (Rng.create 42) ~skip:0;
  check "round trip" (Rng.of_bits (Rng.to_bits (Rng.create 42))) ~skip:0;
  let mid = Rng.create 42 in
  ignore (Rng.bits64 mid);
  ignore (Rng.bits64 mid);
  check "mid-stream round trip" (Rng.of_bits (Rng.to_bits mid)) ~skip:2

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_uniform_range () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 19 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.gaussian rng in
    sum := !sum +. v;
    sq := !sq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_choose_empty () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Stats.mean [])

let test_stats_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 4.0; 4.0; 4.0 ]);
  check_float "single" 0.0 (Stats.stddev [ 4.0 ]);
  (* population stddev of {1,3} repeated is 1 *)
  check_float "pair" 1.0 (Stats.stddev [ 1.0; 3.0; 1.0; 3.0 ])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 7.5; 2.0 ] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.5 hi;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.min_max: empty list")
    (fun () -> ignore (Stats.min_max []))

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "median" 50.0 (Stats.percentile 50.0 xs);
  check_float "p100" 100.0 (Stats.percentile 100.0 xs);
  check_float "p1" 1.0 (Stats.percentile 1.0 xs)

let test_stats_clamp () =
  check_float "below" 0.0 (Stats.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "above" 1.0 (Stats.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "inside" 0.5 (Stats.clamp ~lo:0.0 ~hi:1.0 0.5);
  Alcotest.(check int) "clampi" 3 (Stats.clampi ~lo:0 ~hi:3 9)

let test_table_render () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_separator t;
  Table.add_row t [ "333" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "five lines" 5 (List.length lines);
  Alcotest.(check bool) "first row before separator" true
    (String.length (List.nth lines 2) > 0);
  Alcotest.(check string) "header first" "| a   | bb |" (List.hd lines)

let test_table_row_order () =
  let t = Table.create ~header:[ "x" ] in
  Table.add_row t [ "first" ];
  Table.add_row t [ "second" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  let row i = List.nth lines i in
  Alcotest.(check bool) "order kept" true
    (String.length (row 2) > 0
    && String.sub (row 2) 2 5 = "first"
    && String.sub (row 3) 2 6 = "second")

let test_table_too_many_cells () =
  let t = Table.create ~header:[ "only" ] in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "a"; "b" ])

(* Json parser *)

let parse_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_json_parse_scalars () =
  Alcotest.(check bool) "null" true (parse_ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parse_ok " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (parse_ok "42" = Json.Number 42.0);
  Alcotest.(check bool) "negative exponent" true
    (parse_ok "-2.5e2" = Json.Number (-250.0));
  Alcotest.(check bool) "string" true (parse_ok {|"hi"|} = Json.String "hi")

let test_json_parse_escapes () =
  Alcotest.(check bool) "standard escapes" true
    (parse_ok {|"a\n\t\"\\b"|} = Json.String "a\n\t\"\\b");
  Alcotest.(check bool) "\\uXXXX ascii" true
    (parse_ok {|"\u0041"|} = Json.String "A");
  (* U+00E9 (e-acute) must decode to two-byte UTF-8. *)
  Alcotest.(check bool) "\\uXXXX utf-8" true
    (parse_ok {|"\u00e9"|} = Json.String "\xc3\xa9")

let test_json_roundtrip () =
  let v =
    Json.Assoc
      [
        ("name", Json.String "sim.restore \"fast\"");
        ("ts", Json.Number 12.5);
        ("tags", Json.List [ Json.int 1; Json.Null; Json.Bool true ]);
        ("args", Json.Assoc [ ("depth", Json.int 3) ]);
      ]
  in
  Alcotest.(check bool) "emit |> parse is the identity" true
    (parse_ok (Json.to_string v) = v);
  Alcotest.(check bool) "pretty emit |> parse is the identity" true
    (parse_ok (Json.to_string_pretty v) = v);
  Alcotest.(check bool) "member finds a field" true
    (Json.member "ts" v = Some (Json.Number 12.5));
  Alcotest.(check bool) "member misses politely" true
    (Json.member "nope" v = None && Json.member "x" Json.Null = None)

let test_json_parse_errors () =
  let rejects s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  List.iter rejects
    [ "{"; "[1,]"; "{\"a\":}"; "12 tail"; ""; "'single'"; "{\"a\" 1}"; "nul" ]

let test_json_rejects_malformed_unicode_escapes () =
  let rejects s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  (* Regression: the hex digits were once parsed with [int_of_string]
     ("0x...."), which accepts OCaml underscore and sign syntax, so these
     all parsed instead of raising. *)
  List.iter rejects
    [
      {|"\u1_23"|};
      {|"\u-123"|};
      {|"\u+123"|};
      {|"\u00g1"|};
      {|"\u12"|};
      {|"\u"|};
      {|"\uxx41"|};
    ];
  (* Well-formed escapes still work, including a 3-byte code point. *)
  Alcotest.(check bool) "valid escapes unaffected" true
    (parse_ok {|"\u0041\u00e9\u20ac"|} = Json.String "A\xc3\xa9\xe2\x82\xac")

(* Trace *)

let noop () = ()

let test_trace_disabled_no_alloc () =
  Trace.set_enabled false;
  Trace.reset ();
  let n = 10_000 in
  Trace.span "warmup" noop;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Trace.span "off" noop
  done;
  let w1 = Gc.minor_words () in
  (* [Gc.minor_words] itself boxes its result, hence the small slack. *)
  Alcotest.(check bool) "disabled span allocates nothing" true
    (w1 -. w0 < 64.0);
  Alcotest.(check int) "nothing was recorded" 0 (Trace.event_count ())

let test_trace_chrome_roundtrip () =
  Trace.reset ();
  Trace.set_enabled true;
  Trace.span "outer" (fun () ->
      Trace.span ~cat:"sim" "inner" noop;
      Trace.counter "cache.hits" 3.0;
      Trace.instant ~cat:"campaign" "finding");
  Trace.set_enabled false;
  Alcotest.(check int) "four events buffered" 4 (Trace.event_count ());
  let text = Json.to_string (Trace.to_chrome_json ()) in
  let parsed = parse_ok text in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let field k ev = Json.member k ev in
  let named name ph =
    List.exists
      (fun ev ->
        field "name" ev = Some (Json.String name)
        && field "ph" ev = Some (Json.String ph))
      events
  in
  Alcotest.(check bool) "outer span" true (named "outer" "X");
  Alcotest.(check bool) "inner span" true (named "inner" "X");
  Alcotest.(check bool) "counter" true (named "cache.hits" "C");
  Alcotest.(check bool) "instant" true (named "finding" "i");
  List.iter
    (fun ev ->
      if field "ph" ev = Some (Json.String "X") then begin
        (match field "ts" ev with
        | Some (Json.Number ts) ->
          Alcotest.(check bool) "ts non-negative" true (ts >= 0.0)
        | _ -> Alcotest.fail "span without numeric ts");
        match field "dur" ev with
        | Some (Json.Number d) ->
          Alcotest.(check bool) "dur non-negative" true (d >= 0.0)
        | _ -> Alcotest.fail "span without numeric dur"
      end)
    events;
  Trace.reset ()

let test_trace_summary () =
  Trace.reset ();
  Trace.set_enabled true;
  Trace.span "outer" (fun () -> Trace.span "inner" noop);
  Trace.span "outer" noop;
  Trace.set_enabled false;
  let rows = Trace.summary () in
  let row name =
    match List.find_opt (fun r -> r.Trace.span_name = name) rows with
    | Some r -> r
    | None -> Alcotest.failf "no summary row for %s" name
  in
  Alcotest.(check int) "outer counted twice" 2 (row "outer").Trace.count;
  Alcotest.(check int) "inner counted once" 1 (row "inner").Trace.count;
  Alcotest.(check bool) "nested total bounded by parent" true
    ((row "inner").Trace.total_s <= (row "outer").Trace.total_s);
  Alcotest.(check bool) "wall covers the outer spans" true
    (Trace.wall_s () >= (row "outer").Trace.max_s);
  (* Spans that raise are still recorded. *)
  (try Trace.set_enabled true; Trace.span "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  Trace.set_enabled false;
  Alcotest.(check bool) "raising span recorded" true
    (List.exists
       (fun r -> r.Trace.span_name = "boom")
       (Trace.summary ()));
  Trace.reset ();
  Alcotest.(check int) "reset drops everything" 0 (Trace.event_count ())

let test_trace_env () =
  (* No process-global env mutation: just the unset default. *)
  Alcotest.(check bool) "unset means disabled" false
    (Trace.enabled_by_env ~var:"AVIS_TEST_SURELY_UNSET_TRACE" ())

(* Env: the shared warn-and-fall-back parser behind every AVIS_* knob. *)

let with_env var value f =
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var "") (fun () -> f ())

(* putenv cannot truly unset; use a fresh name per case for the unset
   arm and treat "" as a set-but-malformed value (which it is). *)
let test_env_positive_int () =
  Alcotest.(check int) "unset -> default" 7
    (Env.positive_int ~var:"AVIS_TEST_ENV_UNSET_INT" ~default:7 ());
  with_env "AVIS_TEST_ENV_INT" " 12 " (fun () ->
      Alcotest.(check int) "trimmed value wins" 12
        (Env.positive_int ~var:"AVIS_TEST_ENV_INT" ~default:7 ()));
  List.iter
    (fun bad ->
      with_env "AVIS_TEST_ENV_INT" bad (fun () ->
          Alcotest.(check int)
            (Printf.sprintf "%S falls back" bad)
            7
            (Env.positive_int ~var:"AVIS_TEST_ENV_INT" ~default:7 ())))
    [ "0"; "-3"; "four"; "4.5"; "" ]

let test_env_positive_float () =
  Alcotest.(check (float 0.0)) "unset -> default" 7200.0
    (Env.positive_float ~var:"AVIS_TEST_ENV_UNSET_FLOAT" ~default:7200.0 ());
  with_env "AVIS_TEST_ENV_FLOAT" "30.5" (fun () ->
      Alcotest.(check (float 0.0)) "value wins" 30.5
        (Env.positive_float ~var:"AVIS_TEST_ENV_FLOAT" ~default:7200.0 ()));
  List.iter
    (fun bad ->
      with_env "AVIS_TEST_ENV_FLOAT" bad (fun () ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%S falls back" bad)
            7200.0
            (Env.positive_float ~var:"AVIS_TEST_ENV_FLOAT" ~default:7200.0 ())))
    [ "0"; "-1.5"; "nan"; "inf"; "soon"; "" ]

let test_env_flag () =
  Alcotest.(check bool) "unset -> false" false
    (Env.flag ~var:"AVIS_TEST_ENV_UNSET_FLAG" ());
  List.iter
    (fun (v, expect) ->
      with_env "AVIS_TEST_ENV_FLAG" v (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "%S" v)
            expect
            (Env.flag ~var:"AVIS_TEST_ENV_FLAG" ())))
    [ ("1", true); ("ON", true); ("Yes", true); ("0", false); ("off", false) ];
  (* A typo no longer silently counts as "on": it warns and keeps the
     default, like every other knob. *)
  with_env "AVIS_TEST_ENV_FLAG" "tru" (fun () ->
      Alcotest.(check bool) "malformed falls back to false" false
        (Env.flag ~var:"AVIS_TEST_ENV_FLAG" ()))

(* Metrics: the key=value line protocol and its parse_line inverse. *)

let sample_snapshot cell =
  {
    Metrics.cell; simulations = 41; inferences = 3; spent_s = 612.0;
    budget_s = 7200.0; findings = 2; wall_s = 0.8; minor_words = 12.5e6;
    major_collections = 2; store_hits = 5; store_misses = 1;
    store_bytes = 123456; profile = Metrics.Profile_run;
  }

let test_metrics_line_escapes_cell () =
  (* Regression: an unescaped space or '=' in the cell label used to
     corrupt the key=value framing of the whole line. *)
  let s = sample_snapshot "avis/apm/auto box=v2" in
  let text = Metrics.line ~event:"progress" s in
  Alcotest.(check bool) "no raw space in the cell field" false
    (String.split_on_char ' ' text
    |> List.exists (fun tok -> tok = "box=v2"));
  match Metrics.parse_line text with
  | Error e -> Alcotest.failf "parse_line failed: %s" e
  | Ok (event, parsed, tags) ->
    Alcotest.(check string) "event" "progress" event;
    Alcotest.(check string) "cell exact" s.Metrics.cell parsed.Metrics.cell;
    Alcotest.(check (list (pair string string))) "no tags" [] tags

let test_metrics_line_tags () =
  let s = sample_snapshot "avis/apm/auto-box" in
  let tags = [ ("req", "r-12"); ("shard", "0") ] in
  let text = Metrics.line ~tags ~event:"progress" s in
  match Metrics.parse_line text with
  | Error e -> Alcotest.failf "parse_line failed: %s" e
  | Ok (_, _, parsed_tags) ->
    Alcotest.(check (list (pair string string))) "tags round-trip" tags
      parsed_tags

let test_metrics_parse_rejects () =
  List.iter
    (fun bad ->
      match Metrics.parse_line bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse_line %S unexpectedly succeeded" bad)
    [
      "event=progress cell=x";  (* no [avis] prefix *)
      "[avis] event=progress";  (* missing fields *)
      "[avis] event=progress cell=x sims=many infs=0 spent_s=0.0 \
       budget_s=0.0 findings=0 wall_s=0.0 minor_mw=0.00 majors=0 store_h=0 \
       store_m=0 store_b=0 prof=run";  (* non-numeric count *)
      "[avis] event=progress cell=bad%GG sims=0 infs=0 spent_s=0.0 \
       budget_s=0.0 findings=0 wall_s=0.0 minor_mw=0.00 majors=0 store_h=0 \
       store_m=0 store_b=0 prof=run";  (* malformed escape *)
      "[avis] event=progress cell=x sims=0 infs=0 spent_s=0.0 \
       budget_s=0.0 findings=0 wall_s=0.0 minor_mw=0.00 majors=0 store_h=0 \
       store_m=0 store_b=0";  (* no profile source *)
      "[avis] event=progress cell=x sims=0 infs=0 spent_s=0.0 \
       budget_s=0.0 findings=0 wall_s=0.0 minor_mw=0.00 majors=0 store_h=0 \
       store_m=0 store_b=0 prof=disk";  (* unknown profile source *)
    ]

(* Any cell label and tag value — spaces, '=', '%', newlines, whatever —
   must survive line/parse_line exactly, and re-rendering the parsed
   snapshot must reproduce the line byte for byte (numeric fields are
   generated on the rendering grid so the fixed-point formats are
   lossless). *)
let test_metrics_roundtrip_qcheck =
  let snapshot_gen =
    QCheck.Gen.(
      let* cell = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 30) in
      let* simulations = int_bound 10_000 in
      let* inferences = int_bound 10_000 in
      let* spent_d = int_bound 100_000 in
      let* budget_d = int_bound 100_000 in
      let* findings = int_bound 100 in
      let* wall_d = int_bound 10_000 in
      let* minor_cw = int_bound 1_000_000 in
      let* major_collections = int_bound 50 in
      let* store_hits = int_bound 1000 in
      let* store_misses = int_bound 1000 in
      let* store_bytes = int_bound 1_000_000_000 in
      let* profile =
        oneofl [ Metrics.Profile_run; Metrics.Profile_store; Metrics.No_profile ]
      in
      let* tag = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12) in
      return
        ( {
            Metrics.cell;
            simulations;
            inferences;
            spent_s = float_of_int spent_d /. 10.0;
            budget_s = float_of_int budget_d /. 10.0;
            findings;
            wall_s = float_of_int wall_d /. 10.0;
            minor_words = float_of_int minor_cw /. 100.0 *. 1e6;
            major_collections;
            store_hits;
            store_misses;
            store_bytes;
            profile;
          },
          tag ))
  in
  QCheck.Test.make ~count:500
    ~name:"metrics line/parse_line round-trips any cell label"
    (QCheck.make snapshot_gen)
    (fun (s, tag) ->
      let tags = [ ("req", tag) ] in
      let text = Metrics.line ~tags ~event:"progress" s in
      match Metrics.parse_line text with
      | Error e -> QCheck.Test.fail_reportf "parse_line failed: %s" e
      | Ok (event, parsed, parsed_tags) ->
        if event <> "progress" then QCheck.Test.fail_report "event mismatch";
        if parsed.Metrics.cell <> s.Metrics.cell then
          QCheck.Test.fail_reportf "cell mismatch: %S <> %S"
            parsed.Metrics.cell s.Metrics.cell;
        if parsed_tags <> tags then QCheck.Test.fail_report "tag mismatch";
        let reprinted = Metrics.line ~tags:parsed_tags ~event parsed in
        if reprinted <> text then
          QCheck.Test.fail_reportf "re-render differs:\n%s\n%s" text reprinted;
        true)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "avis_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects 0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "choose empty" `Quick test_rng_choose_empty;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "clamp" `Quick test_stats_clamp;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row order" `Quick test_table_row_order;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_parse_scalars;
          Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          Alcotest.test_case "malformed \\u escapes" `Quick
            test_json_rejects_malformed_unicode_escapes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled costs nothing" `Quick
            test_trace_disabled_no_alloc;
          Alcotest.test_case "chrome round-trip" `Quick
            test_trace_chrome_roundtrip;
          Alcotest.test_case "summary" `Quick test_trace_summary;
          Alcotest.test_case "env gate" `Quick test_trace_env;
        ] );
      ( "env",
        [
          Alcotest.test_case "positive int" `Quick test_env_positive_int;
          Alcotest.test_case "positive float" `Quick test_env_positive_float;
          Alcotest.test_case "flag" `Quick test_env_flag;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "cell escaping" `Quick
            test_metrics_line_escapes_cell;
          Alcotest.test_case "tags" `Quick test_metrics_line_tags;
          Alcotest.test_case "parse rejects" `Quick test_metrics_parse_rejects;
          q test_metrics_roundtrip_qcheck;
        ] );
    ]
