(* The persistent checkpoint store and the binary snapshot codecs under it.

   Three layers, in dependency order: (1) [Sim.encode_snapshot]/
   [decode_snapshot] with [Sim.restore], and the stepper codec, must
   round-trip float-for-float — calm, windy, and with a fault already
   active; (2) [Checkpoint_store] must serve exactly what was
   put, treat every corruption as a miss, respect fingerprints and the byte
   budget; (3) a fresh [Prefix_cache] sharing a store directory must serve
   scenarios from disk with outcomes bit-identical to cold runs, even after
   the directory is vandalised, reading only the file each one forks from,
   and the directory must hold only the clean captures and each scenario's
   final capture. *)

open Avis_geo
open Avis_sensors
open Avis_firmware
open Avis_sitl
open Avis_core

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let temp_counter = ref 0

let temp_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "avis-test-store-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let windy_environment () =
  Avis_physics.Environment.create
    ~wind:
      (Some
         {
           Avis_physics.Environment.steady = Vec3.make 2.5 1.0 0.0;
           gust_stddev = 0.6;
           gust_correlation_s = 2.0;
         })
    ()

let sim_config ?(seed = 42) ?environment workload policy =
  let base = Sim.default_config policy in
  {
    base with
    Sim.seed;
    max_duration = workload.Workload.nominal_duration +. 60.0;
    environment =
      (match environment with
      | Some _ as e -> e
      | None -> workload.Workload.environment ());
  }

let cold_run ?seed ?environment ?(plan = []) workload policy =
  let sim = Sim.create ~plan (sim_config ?seed ?environment workload policy) in
  let passed = Workload.execute workload sim in
  Sim.outcome sim ~workload_passed:passed

(* The trace compared by IEEE-754 bit patterns: [=] on floats would call
   0.0 and -0.0 equal and nan unequal to itself; bits are the honest
   notion of "identical flight". *)
let trace_bits (o : Sim.outcome) =
  Array.to_list (Trace.samples o.Sim.trace)
  |> List.concat_map (fun (s : Trace.sample) ->
         [
           Int64.bits_of_float s.Trace.time;
           Int64.bits_of_float s.Trace.position.Vec3.x;
           Int64.bits_of_float s.Trace.position.Vec3.y;
           Int64.bits_of_float s.Trace.position.Vec3.z;
           Int64.bits_of_float s.Trace.acceleration.Vec3.x;
           Int64.bits_of_float s.Trace.acceleration.Vec3.y;
           Int64.bits_of_float s.Trace.acceleration.Vec3.z;
         ])

let fingerprint (o : Sim.outcome) =
  ( trace_bits o,
    Array.to_list (Array.map (fun (s : Trace.sample) -> s.Trace.mode)
      (Trace.samples o.Sim.trace)),
    o.Sim.crash,
    o.Sim.fence_breached,
    o.Sim.workload_passed,
    o.Sim.transitions,
    o.Sim.triggered_bugs,
    Int64.bits_of_float o.Sim.duration,
    o.Sim.sensor_reads )

let check_same_outcome msg a b =
  Alcotest.(check bool) msg true (fingerprint a = fingerprint b)

let fail_kind ?(n = 2) kind at =
  List.init n (fun index -> { Avis_hinj.Hinj.sensor = { Sensor.kind; index }; at })

let paused_run ?environment ?(plan = []) workload policy ~until =
  let sim = Sim.create ~plan (sim_config ?environment workload policy) in
  let st = Workload.Stepper.create workload in
  (match Workload.Stepper.run st sim ~until with
  | Workload.Stepper.Running -> ()
  | Workload.Stepper.Done _ -> Alcotest.fail "run finished before pause");
  (sim, st)

let encode_sim sim =
  Avis_util.Codec.to_string Sim.encode_snapshot (Sim.snapshot sim)

let decode_sim ~config bytes =
  Avis_util.Codec.of_string (Sim.decode_snapshot ~config) bytes

let encode_stepper st = Avis_util.Codec.to_string Workload.Stepper.encode st

let decode_stepper workload bytes =
  Avis_util.Codec.of_string (Workload.Stepper.decode workload) bytes

let finish ~plan workload sim_snap stepper_bytes =
  let sim = Sim.restore ~plan ~link_outages:[] sim_snap in
  let st = decode_stepper workload stepper_bytes in
  let passed =
    match Workload.Stepper.run st sim ~until:infinity with
    | Workload.Stepper.Done p -> p
    | Workload.Stepper.Running -> false
  in
  Sim.outcome sim ~workload_passed:passed

(* ------------------------------------------------------------------ *)
(* Snapshot codec round-trips                                           *)
(* ------------------------------------------------------------------ *)

(* Pause mid-flight, push both states through their byte codecs, and
   finish the flight from the decoded state with the fault plan
   substituted in. The decoded run must be bit-identical to the cold
   faulty run, and the codec must be canonical (decode; re-encode yields
   the same bytes). *)
let roundtrip_case ?environment ~pause_at ~fault_at workload policy =
  let plan = fail_kind Sensor.Gps fault_at in
  let cold = cold_run ?environment ~plan workload policy in
  let sim, st = paused_run ?environment ~plan workload policy ~until:pause_at in
  let sim_bytes = encode_sim sim in
  let st_bytes = encode_stepper st in
  let sim_snap = decode_sim ~config:(Sim.config sim) sim_bytes in
  Alcotest.(check bool) "sim codec canonical" true
    (String.equal
       (encode_sim (Sim.restore ~plan ~link_outages:[] sim_snap))
       sim_bytes);
  Alcotest.(check bool) "stepper codec canonical" true
    (String.equal (encode_stepper (decode_stepper workload st_bytes)) st_bytes);
  let decoded = finish ~plan workload sim_snap st_bytes in
  check_same_outcome "decoded snapshot = cold run" cold decoded

let test_roundtrip_calm () =
  roundtrip_case ~pause_at:12.0 ~fault_at:20.0 Workload.quickstart Policy.apm

let test_roundtrip_windy () =
  roundtrip_case
    ~environment:(windy_environment ())
    ~pause_at:15.0 ~fault_at:25.0 Workload.quickstart Policy.apm

let test_roundtrip_mid_fault () =
  (* Pause *after* the injection: the snapshot carries a failed sensor,
     active bug state and a partially degraded estimator. *)
  roundtrip_case ~pause_at:27.0 ~fault_at:20.0 Workload.quickstart Policy.apm

let test_roundtrip_auto_box_px4 () =
  roundtrip_case ~pause_at:30.0 ~fault_at:45.0 Workload.auto_box Policy.px4

(* A restore takes every constant from its config: the bytes carry no
   fence, policy or bug registry. Under PX4 with its known bug re-inserted,
   on the fenced mission, the run paused in its first leg must re-encode
   to the same bytes and finish like the cold run of the fault plan that
   exercises that bug and the fence. *)
let test_roundtrip_fence_known_bug () =
  let workload = Workload.fence_mission and policy = Policy.px4 in
  let config =
    {
      (sim_config workload policy) with
      Sim.enabled_bugs = Bug.unknown_bugs Bug.Px4 @ Bug.known_bugs Bug.Px4;
    }
  in
  let plan = fail_kind Sensor.Gps 15.0 @ fail_kind ~n:1 Sensor.Battery 17.0 in
  let cold =
    let sim = Sim.create ~plan config in
    let passed = Workload.execute workload sim in
    Sim.outcome sim ~workload_passed:passed
  in
  Alcotest.(check bool) "the cold run breaches the fence" true
    cold.Sim.fence_breached;
  Alcotest.(check bool) "the cold run triggers the known bug" true
    (List.mem Bug.Px4_13291 cold.Sim.triggered_bugs);
  let sim = Sim.create ~plan config in
  let st = Workload.Stepper.create workload in
  (match Workload.Stepper.run st sim ~until:13.0 with
  | Workload.Stepper.Running -> ()
  | Workload.Stepper.Done _ -> Alcotest.fail "run finished before pause");
  let sim_bytes = encode_sim sim in
  let sim_snap = decode_sim ~config sim_bytes in
  Alcotest.(check bool) "sim codec canonical" true
    (String.equal
       (encode_sim (Sim.restore ~plan ~link_outages:[] sim_snap))
       sim_bytes);
  let decoded = finish ~plan workload sim_snap (encode_stepper st) in
  Alcotest.(check bool) "fence flag" cold.Sim.fence_breached
    decoded.Sim.fence_breached;
  Alcotest.(check bool) "triggered bugs" true
    (cold.Sim.triggered_bugs = decoded.Sim.triggered_bugs);
  Alcotest.(check bool) "trace" true (trace_bits cold = trace_bits decoded);
  check_same_outcome "decoded snapshot = cold run" cold decoded

let qcheck_roundtrip =
  QCheck.Test.make ~count:6 ~name:"sim+stepper codec round-trips at any pause"
    QCheck.(pair (float_range 2.0 20.0) (float_range 0.0 1.0))
    (fun (pause_at, frac) ->
      let fault_at = pause_at +. ((40.0 -. pause_at) *. frac) +. 1.0 in
      let workload = Workload.quickstart and policy = Policy.apm in
      let plan = fail_kind ~n:1 Sensor.Barometer fault_at in
      let cold = cold_run ~plan workload policy in
      let sim, st = paused_run ~plan workload policy ~until:pause_at in
      let sim_bytes = encode_sim sim in
      let st_bytes = encode_stepper st in
      let sim_snap = decode_sim ~config:(Sim.config sim) sim_bytes in
      String.equal
        (encode_sim (Sim.restore ~plan ~link_outages:[] sim_snap))
        sim_bytes
      && String.equal (encode_stepper (decode_stepper workload st_bytes)) st_bytes
      && fingerprint (finish ~plan workload sim_snap st_bytes)
         = fingerprint cold)

let test_of_bytes_rejects_garbage () =
  let sim, _ = paused_run Workload.quickstart Policy.apm ~until:5.0 in
  let config = Sim.config sim in
  let restore bytes =
    Sim.restore ~plan:[] ~link_outages:[] (decode_sim ~config bytes)
  in
  (match restore "" with
  | exception Avis_util.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "empty input decoded");
  let bytes = encode_sim sim in
  let truncated = String.sub bytes 0 (String.length bytes / 2) in
  (match restore truncated with
  | exception Avis_util.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated snapshot decoded");
  (* The layers decode at restore: a state string cut short inside, with
     its length prefix and the trace intact, must not restore either. *)
  let r = Avis_util.Codec.reader bytes in
  let state = Avis_util.Codec.r_bytes r in
  let rest = Avis_util.Codec.remaining r in
  let trace = String.sub bytes (String.length bytes - rest) rest in
  let cut =
    Avis_util.Codec.to_string Avis_util.Codec.w_bytes
      (String.sub state 0 (String.length state / 2))
    ^ trace
  in
  match restore cut with
  | exception Avis_util.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated state restored"

(* A whole outcome through its codec: the decoded outcome is the
   original field for field, floats by their bits, and re-encodes to the
   same bytes. *)
let test_outcome_roundtrip () =
  let plan = fail_kind Sensor.Gps 20.0 in
  let o = cold_run ~plan Workload.quickstart Policy.apm in
  let bytes = Avis_util.Codec.to_string Sim.encode_outcome o in
  let decoded = Avis_util.Codec.of_string Sim.decode_outcome bytes in
  check_same_outcome "decoded outcome = original" o decoded;
  Alcotest.(check bool) "outcome codec canonical" true
    (String.equal (Avis_util.Codec.to_string Sim.encode_outcome decoded) bytes)

(* ------------------------------------------------------------------ *)
(* Hostile snapshot bytes                                               *)
(* ------------------------------------------------------------------ *)

(* Decoders face arbitrary disk bytes: partial writes, bit rot, other
   processes' files. Whatever the damage, the only observable failure is
   [Codec.Corrupt] — in particular no [Out_of_memory] or [Invalid_argument]
   from allocating a length prefix the buffer cannot possibly back. A
   damaged buffer that still decodes cleanly is fine (a flipped float bit
   is just a different float); raising anything else is the bug. *)

(* A simulator, a stepper and an outcome (the paused run's, mid-flight:
   a trace, transitions and sensor reads), encoded. *)
let exemplar_bytes =
  lazy
    (let sim, st = paused_run Workload.quickstart Policy.apm ~until:8.0 in
     [|
       encode_sim sim;
       encode_stepper st;
       Avis_util.Codec.to_string Sim.encode_outcome
         (Sim.outcome sim ~workload_passed:false);
     |])

(* Snapshot bytes decode in two steps: [Sim.decode_snapshot] reads the
   trace and takes the state string whole, and [Sim.restore] decodes the
   layers in it. Both run here, as they do for every store hit. *)
let decoders =
  let config = sim_config Workload.quickstart Policy.apm in
  [
    ( "Sim.decode_snapshot+restore",
      fun s ->
        ignore (Sim.restore ~plan:[] ~link_outages:[] (decode_sim ~config s))
    );
    ("Stepper.decode", fun s -> ignore (decode_stepper Workload.quickstart s));
    ( "Sim.decode_outcome",
      fun s -> ignore (Avis_util.Codec.of_string Sim.decode_outcome s) );
    ( "Codec string+floats",
      fun s ->
        let r = Avis_util.Codec.reader s in
        ignore (Avis_util.Codec.r_bytes r);
        ignore (Avis_util.Codec.r_float_array r) );
  ]

let only_corrupt bytes =
  List.for_all
    (fun (name, decode) ->
      match decode bytes with
      | () -> true
      | exception Avis_util.Codec.Corrupt _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s raised %s, not Corrupt" name
          (Printexc.to_string e))
    decoders

let qcheck_fuzz_truncated =
  QCheck.Test.make ~count:60 ~name:"truncated snapshot bytes: only Corrupt"
    QCheck.(pair (float_range 0.0 1.0) (int_range 0 2))
    (fun (frac, which) ->
      let bytes = (Lazy.force exemplar_bytes).(which) in
      let cut =
        min (String.length bytes - 1)
          (int_of_float (frac *. float_of_int (String.length bytes)))
      in
      only_corrupt (String.sub bytes 0 cut))

let qcheck_fuzz_bitflip =
  QCheck.Test.make ~count:120 ~name:"bit-flipped snapshot bytes: only Corrupt"
    QCheck.(triple (float_range 0.0 1.0) (int_range 0 7) (int_range 0 2))
    (fun (frac, bit, which) ->
      let bytes = (Lazy.force exemplar_bytes).(which) in
      let i =
        min (String.length bytes - 1)
          (int_of_float (frac *. float_of_int (String.length bytes)))
      in
      let b = Bytes.of_string bytes in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      only_corrupt (Bytes.to_string b))

let qcheck_fuzz_random =
  QCheck.Test.make ~count:120 ~name:"random buffers: only Corrupt"
    QCheck.(string_gen_of_size (Gen.int_range 0 512) Gen.char)
    only_corrupt

(* A length the bit-flip property once hit, whose decoder built an
   object before checking: a controller's motor outputs, which must be the
   Iris's 4 (the mixer writes one per motor). *)
let test_decode_counts_bounded () =
  let open Avis_util.Codec in
  let corrupt name decode bytes =
    match decode (reader bytes) with
    | _ -> Alcotest.failf "%s decoded" name
    | exception Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e)
  in
  (* A controller with [n] motor outputs. *)
  let control n =
    let b = Buffer.create 64 in
    w_version b 3;
    Pid.encode b (Pid.create ~kp:1.0 ());
    w_float_array b (Array.make n 0.0);
    Buffer.contents b
  in
  (* The hand-built layout is the current one: 4 outputs decode. *)
  ignore (of_string (Control.decode ~params:Params.default) (control 4));
  List.iter
    (fun n ->
      corrupt (Printf.sprintf "%d motor outputs" n)
        (Control.decode ~params:Params.default)
        (control n))
    [ 0; 2; 3; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Checkpoint store                                                     *)
(* ------------------------------------------------------------------ *)

let make_store ?(fingerprint = "fp") ?store_mb ~dir () =
  Checkpoint_store.create ~fingerprint ?store_mb ~dir ()

let put store ~key ~time payload =
  Checkpoint_store.put store ~key ~time ~payload:(lazy payload)

let test_store_put_lookup () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~key:"" ~time:10.0 "clean@10";
  put store ~key:"" ~time:20.0 "clean@20";
  put store ~key:"gps@x" ~time:15.0 "faulty@15";
  (match Checkpoint_store.lookup store ~key:"" ~before:15.0 with
  | Some (t, p) ->
    Alcotest.(check (float 0.0)) "time" 10.0 t;
    Alcotest.(check string) "payload" "clean@10" p
  | None -> Alcotest.fail "expected clean@10");
  (match Checkpoint_store.lookup store ~key:"" ~before:infinity with
  | Some (t, _) -> Alcotest.(check (float 0.0)) "latest first" 20.0 t
  | None -> Alcotest.fail "expected clean@20");
  (* [before] is strict: a checkpoint at exactly the injection time could
     already contain the fault's first effects. *)
  Alcotest.(check bool) "strictly before" true
    (Checkpoint_store.lookup store ~key:"" ~before:10.0 = None);
  (match Checkpoint_store.lookup store ~key:"gps@x" ~before:infinity with
  | Some (_, p) -> Alcotest.(check string) "keys are isolated" "faulty@15" p
  | None -> Alcotest.fail "expected faulty@15");
  Alcotest.(check bool) "unknown key" true
    (Checkpoint_store.lookup store ~key:"other" ~before:infinity = None)

let test_store_put_is_idempotent_and_lazy () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~key:"" ~time:10.0 "first";
  let forced = ref false in
  Checkpoint_store.put store ~key:"" ~time:10.0
    ~payload:
      (lazy
        (forced := true;
         "second"));
  Alcotest.(check bool) "existing file skips serialisation" false !forced;
  match Checkpoint_store.lookup store ~key:"" ~before:infinity with
  | Some (_, p) -> Alcotest.(check string) "first write wins" "first" p
  | None -> Alcotest.fail "expected a checkpoint"

let ckpt_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
  |> List.map (Filename.concat dir)

let damage_file ~at path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let truncate_file ~len path =
  let ic = open_in_bin path in
  let data = really_input_string ic (min len (in_channel_length ic)) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let test_store_corruption_is_a_miss () =
  let payload = String.init 256 (fun i -> Char.chr (i land 0xFF)) in
  let check_damaged name damage =
    with_temp_dir @@ fun dir ->
    let store = make_store ~dir () in
    put store ~key:"" ~time:10.0 payload;
    (match ckpt_files dir with
    | [ path ] -> damage path
    | files ->
      Alcotest.fail (Printf.sprintf "expected 1 file, got %d" (List.length files)));
    Alcotest.(check bool) (name ^ " is a miss") true
      (Checkpoint_store.lookup store ~key:"" ~before:infinity = None);
    (* The damaged file must be gone, not retried forever. *)
    Alcotest.(check int) (name ^ " deleted") 0 (List.length (ckpt_files dir))
  in
  check_damaged "truncated header" (truncate_file ~len:12);
  check_damaged "truncated payload" (truncate_file ~len:100);
  check_damaged "bit-flipped payload" (damage_file ~at:60);
  check_damaged "bit-flipped checksum" (damage_file ~at:8);
  check_damaged "bad magic" (damage_file ~at:0)

let test_store_corrupt_newest_falls_back_to_older () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~key:"" ~time:10.0 "older";
  put store ~key:"" ~time:20.0 "newer";
  let newer =
    List.find
      (fun p ->
        let ic = open_in_bin p in
        let d = really_input_string ic (in_channel_length ic) in
        close_in ic;
        String.length d > 29 && String.sub d 29 (String.length d - 29) = "newer")
      (ckpt_files dir)
  in
  damage_file ~at:30 newer;
  match Checkpoint_store.lookup store ~key:"" ~before:infinity with
  | Some (t, p) ->
    Alcotest.(check (float 0.0)) "older served" 10.0 t;
    Alcotest.(check string) "older payload" "older" p
  | None -> Alcotest.fail "expected the older checkpoint"

let test_store_stale_fingerprint_invisible () =
  with_temp_dir @@ fun dir ->
  let old_build = make_store ~fingerprint:"build-a" ~dir () in
  put old_build ~key:"" ~time:10.0 "from build a";
  let new_build = make_store ~fingerprint:"build-b" ~dir () in
  Alcotest.(check bool) "other build's checkpoints invisible" true
    (Checkpoint_store.lookup new_build ~key:"" ~before:infinity = None)

let test_store_eviction_bounded () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:1 ~dir () in
  let big = String.make 700_000 'x' in
  put store ~key:"" ~time:10.0 big;
  put store ~key:"" ~time:20.0 (String.make 700_000 'y');
  Alcotest.(check bool) "bytes within budget" true
    (Checkpoint_store.bytes store <= 1024 * 1024);
  Alcotest.(check bool) "evicted something" true
    (Checkpoint_store.evictions store > 0)

(* The store counts its bytes without rescanning the directory: the count
   must follow every put, corrupt-file deletion and eviction, and agree
   with what a fresh instance's scan finds. *)
let test_store_bytes_track_dir () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:1 ~dir () in
  let check step =
    let on_disk =
      List.fold_left
        (fun acc p -> acc + (Unix.stat p).Unix.st_size)
        0 (ckpt_files dir)
    in
    Alcotest.(check int) (step ^ ": tracked") on_disk
      (Checkpoint_store.bytes store);
    Alcotest.(check int) (step ^ ": fresh scan") on_disk
      (Checkpoint_store.bytes (make_store ~store_mb:1 ~dir ()))
  in
  put store ~key:"" ~time:10.0 "kept";
  check "put";
  put store ~key:"" ~time:20.0 "damaged";
  let suffix = Printf.sprintf "-%016Lx.ckpt" (Int64.bits_of_float 20.0) in
  damage_file ~at:30
    (List.find (String.ends_with ~suffix) (ckpt_files dir));
  (match Checkpoint_store.lookup store ~key:"" ~before:infinity with
  | Some (_, p) -> Alcotest.(check string) "older served" "kept" p
  | None -> Alcotest.fail "expected the older checkpoint");
  check "corrupt file deleted";
  put store ~key:"" ~time:30.0 (String.make 700_000 'a');
  put store ~key:"" ~time:40.0 (String.make 700_000 'b');
  Alcotest.(check bool) "evicted something" true
    (Checkpoint_store.evictions store > 0);
  check "eviction"

let test_store_eviction_mtime_tiebreak () =
  (* Filesystems with 1 s timestamp granularity make equal-mtime
     checkpoints routine. The eviction order must then fall back to path
     order, so the surviving set is a function of the store's contents,
     not of readdir order or sub-second timer luck. *)
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:1 ~dir () in
  put store ~key:"" ~time:10.0 (String.make 400_000 'a');
  put store ~key:"" ~time:20.0 (String.make 400_000 'b');
  let t = 1_000_000_000.0 in
  List.iter (fun p -> Unix.utimes p t t) (ckpt_files dir);
  let tied = List.sort compare (ckpt_files dir) in
  put store ~key:"" ~time:30.0 (String.make 400_000 'c');
  let survivors = ckpt_files dir in
  match tied with
  | [ first; second ] ->
    Alcotest.(check int) "exactly one eviction" 2 (List.length survivors);
    Alcotest.(check bool) "lexicographically-first of the tie evicted" false
      (List.mem first survivors);
    Alcotest.(check bool) "lexicographically-second of the tie survives" true
      (List.mem second survivors)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 tied files, got %d" (List.length l))

(* MiB counts whose bytes overflow an int: 2^42 MiB wraps to -2^62 bytes
   and 2^43 MiB to 0, and either budget would evict everything. *)
let overflowing_mb = [ 4398046511104; 8796093022208 ]

let test_store_mb_guard () =
  (* Malformed, non-positive and overflowing budgets must warn and fall
     back to the default rather than silently zeroing the store.
     Observable effect: such a store still retains small checkpoints (a
     zero budget would evict everything on every put). *)
  let retained ?store_mb () =
    with_temp_dir @@ fun dir ->
    let store = make_store ?store_mb ~dir () in
    put store ~key:"" ~time:10.0 "kept";
    match Checkpoint_store.lookup store ~key:"" ~before:infinity with
    | Some (_, p) -> p = "kept"
    | None -> false
  in
  List.iter
    (fun mb ->
      Alcotest.(check bool)
        (Printf.sprintf "store_mb:%d retained under default budget" mb)
        true (retained ~store_mb:mb ()))
    (0 :: overflowing_mb);
  (* putenv can't unset; park the variable on the default so later stores
     in this process neither warn nor change behaviour. *)
  Fun.protect
    ~finally:(fun () -> Unix.putenv "AVIS_STORE_MB" "1024")
    (fun () ->
      List.iter
        (fun value ->
          Unix.putenv "AVIS_STORE_MB" value;
          Alcotest.(check bool)
            (Printf.sprintf "AVIS_STORE_MB=%s falls back" value)
            true (retained ()))
        ("banana" :: List.map string_of_int overflowing_mb))

let test_cache_mb_guard () =
  (* AVIS_CACHE_MB=0 (or cache_mb:0) used to be accepted, silently making
     every capture evict itself, and so did a count whose bytes overflow.
     With the guard the default budget applies, so a repeated scenario is
     served from memory. *)
  let workload = Workload.quickstart and policy = Policy.apm in
  let served label ?cache_mb () =
    let cache =
      Prefix_cache.create ?cache_mb ~workload
        ~config:(sim_config workload policy)
        ~checkpoint_times:(List.init 30 (fun i -> float_of_int (i + 1)))
        ()
    in
    let scenario =
      Scenario.of_faults
        [ Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 0 } 25.0 ]
    in
    let a = Prefix_cache.execute cache ~scenario in
    let b = Prefix_cache.execute cache ~scenario in
    check_same_outcome (label ^ ": deterministic") a b;
    let s = Prefix_cache.stats cache in
    Alcotest.(check bool) (label ^ ": default budget kept the checkpoints")
      true (s.Prefix_cache.hits >= 1);
    Alcotest.(check int) (label ^ ": no self-evictions") 0
      s.Prefix_cache.evictions
  in
  List.iter
    (fun mb -> served (Printf.sprintf "cache_mb:%d" mb) ~cache_mb:mb ())
    (0 :: overflowing_mb);
  Fun.protect
    ~finally:(fun () -> Unix.putenv "AVIS_CACHE_MB" "1024")
    (fun () ->
      List.iter
        (fun mb ->
          Unix.putenv "AVIS_CACHE_MB" (string_of_int mb);
          served (Printf.sprintf "AVIS_CACHE_MB=%d" mb) ())
        overflowing_mb)

(* ------------------------------------------------------------------ *)
(* Prefix cache over a shared store                                     *)
(* ------------------------------------------------------------------ *)

let quickstart_targets = List.init 30 (fun i -> float_of_int (i + 1))

let quickstart_cache ~store_dir =
  let workload = Workload.quickstart and policy = Policy.apm in
  let make_sim ~scenario =
    Sim.create
      ~plan:(Scenario.to_plan scenario)
      ~link_outages:(Scenario.link_outages scenario)
      (sim_config workload policy)
  in
  ( Prefix_cache.create
      ~store:(Checkpoint_store.create ~dir:store_dir ())
      ~workload
      ~config:(sim_config workload policy)
      ~checkpoint_times:quickstart_targets (),
    make_sim,
    workload )

let store_scenarios () =
  [
    Scenario.empty;
    Scenario.of_faults
      [
        Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 0 } 25.0;
        Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 1 } 25.0;
      ];
    Scenario.of_faults
      [ Scenario.sensor_fault { Sensor.kind = Sensor.Barometer; index = 0 } 12.5 ];
  ]

let check_cache_against_cold ?(scenarios = store_scenarios ()) ~msg cache
    make_sim workload =
  List.iter
    (fun scenario ->
      let served = Prefix_cache.execute cache ~scenario in
      let sim = make_sim ~scenario in
      let passed = Workload.execute workload sim in
      let cold = Sim.outcome sim ~workload_passed:passed in
      check_same_outcome msg cold served)
    scenarios

let test_store_shared_across_instances () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"first instance = cold" cache1 make_sim workload;
  let s1 = Prefix_cache.stats cache1 in
  Alcotest.(check bool) "first instance wrote checkpoints" true
    (s1.Prefix_cache.store_bytes > 0);
  (* A fresh instance — empty memory, same dir — is the warm-process path:
     everything it restores comes off disk. *)
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"second instance = cold" cache2 make_sim
    workload;
  let s2 = Prefix_cache.stats cache2 in
  Alcotest.(check bool) "second instance served from the store" true
    (s2.Prefix_cache.store_hits > 0);
  Alcotest.(check bool) "second instance skipped simulated time" true
    (s2.Prefix_cache.saved_sim_s > 0.0)

let test_store_vandalised_dir_still_identical () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim1, workload1 = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"populate" cache1 make_sim1 workload1;
  (* Truncate every checkpoint: the next instance must detect each one,
     count misses, and run cold with bit-identical outcomes. *)
  List.iter (fun p -> truncate_file ~len:40 p) (ckpt_files store_dir);
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"vandalised store = cold" cache2 make_sim
    workload;
  let s = Prefix_cache.stats cache2 in
  Alcotest.(check int) "nothing served from disk" 0 s.Prefix_cache.store_hits;
  Alcotest.(check bool) "misses counted" true (s.Prefix_cache.store_misses > 0)

(* A checkpoint file's capture time, from the bits that follow its key
   hash. *)
let capture_time path =
  let name = Filename.basename path in
  Int64.float_of_bits (Int64.of_string ("0x" ^ String.sub name 33 16))

(* The checkpoint files' capture times, grouped by the 32-hex-digit key
   hash that opens each name. *)
let times_by_hash dir =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun path ->
      let hash = String.sub (Filename.basename path) 0 32 in
      let time = capture_time path in
      Hashtbl.replace tbl hash
        (time :: Option.value ~default:[] (Hashtbl.find_opt tbl hash)))
    (ckpt_files dir);
  List.of_seq (Hashtbl.to_seq_values tbl)

let first_fault scenario =
  List.fold_left Float.min infinity (List.map Scenario.fault_time scenario)

(* The capture targets a cold run of [scenario] pauses at before it ends,
   stepped as [Prefix_cache.execute] steps it. *)
let targets_reached make_sim workload ~scenario =
  let sim = make_sim ~scenario and st = Workload.Stepper.create workload in
  List.fold_left
    (fun reached until ->
      match Workload.Stepper.run st sim ~until with
      | Workload.Stepper.Running -> until :: reached
      | Workload.Stepper.Done _ -> reached)
    [] quickstart_targets

(* The store holds what a later process forks from: the clean capture at
   every target the clean run reached, and one file under the key of each
   scenario that reached a target after its first fault: its final
   capture. Every other faulty capture stays in memory. *)
let test_store_keeps_final_captures () =
  with_temp_dir @@ fun store_dir ->
  let cache, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"fill = cold" cache make_sim workload;
  let captured_faulty scenario =
    List.exists
      (fun t -> t > first_fault scenario)
      (targets_reached make_sim workload ~scenario)
  in
  let faulty = List.filter captured_faulty (store_scenarios ()) in
  let clean = targets_reached make_sim workload ~scenario:Scenario.empty in
  Alcotest.(check (list int)) "files per key hash"
    (List.map (fun _ -> 1) faulty @ [ List.length clean ])
    (List.sort compare (List.map List.length (times_by_hash store_dir)))

(* A fresh instance forks every scenario from the file its fill left: each
   one restored at its final capture, so the simulated time it skips is the
   sum of those captures' times. *)
let test_store_serves_final_captures () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"fill = cold" cache1 make_sim workload;
  let finals =
    List.fold_left
      (fun acc times -> acc +. List.fold_left Float.max 0.0 times)
      0.0 (times_by_hash store_dir)
  in
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"served = cold" cache2 make_sim workload;
  let s = Prefix_cache.stats cache2 in
  let n = List.length (store_scenarios ()) in
  Alcotest.(check int) "every scenario from the store" n
    s.Prefix_cache.store_hits;
  Alcotest.(check int) "none cold" 0 s.Prefix_cache.misses;
  Alcotest.(check (float 1e-9)) "restored at the final captures" finals
    s.Prefix_cache.saved_sim_s

(* A longer campaign over the same store: scenarios stacked onto a faulty
   scenario after a mode transition it was seen to make, then the fill's
   scenarios. Only the base run's end is stored, not its faulty prefix, so
   a fault stacked after the base's final capture forks from that capture,
   and one before it from the clean prefix. Every outcome must still be
   bit-identical to cold, and none runs cold. *)
let test_store_extension_identical () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"fill = cold" cache1 make_sim workload;
  let base = List.nth (store_scenarios ()) 1 in
  let sim = make_sim ~scenario:base in
  ignore (Workload.execute workload sim : bool);
  let at =
    match
      List.find_opt
        (fun (tr : Avis_hinj.Hinj.transition) ->
          tr.Avis_hinj.Hinj.time > first_fault base)
        (Sim.outcome sim ~workload_passed:false).Sim.transitions
    with
    | Some tr -> tr.Avis_hinj.Hinj.time
    | None -> Alcotest.fail "the faulty base scenario made no transition"
  in
  let stacked =
    List.map
      (fun (kind, dt) ->
        Scenario.of_faults
          (base @ [ Scenario.sensor_fault { Sensor.kind; index = 0 } (at +. dt) ]))
      [ (Sensor.Compass, 0.95); (Sensor.Barometer, 0.5) ]
  in
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold
    ~scenarios:(stacked @ store_scenarios ())
    ~msg:"extension = cold" cache2 make_sim workload;
  Alcotest.(check int) "every scenario forked" 0
    (Prefix_cache.stats cache2).Prefix_cache.misses

(* Re-frame a checkpoint file around the first half of its payload: the
   frame's checksum holds, but the payload does not decode. *)
let halve_payload path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let payload = String.sub data 29 (String.length data - 29) in
  let half = String.sub payload 0 (String.length payload / 2) in
  let b = Buffer.create (29 + String.length half) in
  Buffer.add_string b (String.sub data 0 5);
  Buffer.add_string b (Digest.string half);
  Buffer.add_int64_le b (Int64.of_int (String.length half));
  Buffer.add_string b half;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc

(* A store lookup picks its winner from the index and reads that file
   alone: every other candidate keeps its mtime, which a read would
   refresh. *)
let test_store_reads_only_the_served_file () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"fill = cold" cache1 make_sim workload;
  let files = ckpt_files store_dir and old = 1e9 in
  List.iter (fun p -> Unix.utimes p old old) files;
  let cache2, make_sim, workload = quickstart_cache ~store_dir in
  check_cache_against_cold ~msg:"served = cold" cache2 make_sim workload;
  let read = List.filter (fun p -> (Unix.stat p).Unix.st_mtime <> old) files in
  let s = Prefix_cache.stats cache2 in
  Alcotest.(check int) "every scenario from the store"
    (List.length (store_scenarios ()))
    s.Prefix_cache.store_hits;
  Alcotest.(check int) "one file read per store hit" s.Prefix_cache.store_hits
    (List.length read)

(* A winner that does not load — a damaged frame, or a payload that does not
   decode — is deleted, and the scenario forks from the next-best
   checkpoint: the clean capture before its fault. With every file damaged
   the lookup is a counted miss, and the scenario runs cold. *)
let test_store_corrupt_winner_falls_back () =
  let scenario = List.nth (store_scenarios ()) 1 in
  let fill store_dir =
    let cache, make_sim, workload = quickstart_cache ~store_dir in
    check_cache_against_cold ~scenarios:[ scenario ] ~msg:"fill = cold" cache
      make_sim workload;
    List.sort
      (fun a b -> Float.compare (capture_time b) (capture_time a))
      (ckpt_files store_dir)
  in
  let serve store_dir =
    let cache, make_sim, workload = quickstart_cache ~store_dir in
    check_cache_against_cold ~scenarios:[ scenario ] ~msg:"served = cold" cache
      make_sim workload;
    Prefix_cache.stats cache
  in
  List.iter
    (fun (name, damage) ->
      (with_temp_dir @@ fun store_dir ->
       match fill store_dir with
       | winner :: next :: _ ->
         Alcotest.(check bool) (name ^ ": the winner is faulty") true
           (capture_time winner > first_fault scenario);
         damage winner;
         let s = serve store_dir in
         Alcotest.(check int) (name ^ ": a store hit") 1 s.Prefix_cache.store_hits;
         Alcotest.(check (float 0.0)) (name ^ ": forked at the next best")
           (capture_time next) s.Prefix_cache.saved_sim_s;
         (* The damaged file was deleted, and the served run wrote its
            final capture there afresh. *)
         Alcotest.(check (float 0.0)) (name ^ ": the winner rewritten")
           (capture_time winner)
           (serve store_dir).Prefix_cache.saved_sim_s
       | _ -> Alcotest.fail "the fill stored fewer than two checkpoints");
      with_temp_dir @@ fun store_dir ->
      List.iter damage (fill store_dir);
      let s = serve store_dir in
      Alcotest.(check int) (name ^ " everywhere: a counted miss") 1
        s.Prefix_cache.store_misses;
      Alcotest.(check int) (name ^ " everywhere: cold") 1 s.Prefix_cache.misses)
    [ ("bit-flipped frame", damage_file ~at:60);
      ("payload that does not decode", halve_payload) ]

(* ------------------------------------------------------------------ *)
(* Profiles and the index                                               *)
(* ------------------------------------------------------------------ *)

let files_with suffix dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.map (Filename.concat dir)

let profile_files = files_with ".prof"

let test_store_profile_roundtrip () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  Alcotest.(check bool) "absent profile" true
    (Checkpoint_store.find_profile store ~key:"p" = None);
  Checkpoint_store.put_profile store ~key:"p" ~payload:"outcomes";
  Alcotest.(check (option string)) "served" (Some "outcomes")
    (Checkpoint_store.find_profile store ~key:"p");
  Alcotest.(check bool) "keys are isolated" true
    (Checkpoint_store.find_profile store ~key:"q" = None);
  Alcotest.(check bool) "a profile is no checkpoint" true
    (Checkpoint_store.lookup store ~key:"p" ~before:infinity = None);
  Alcotest.(check (option string)) "a fresh instance finds it"
    (Some "outcomes")
    (Checkpoint_store.find_profile (make_store ~dir ()) ~key:"p");
  Alcotest.(check bool) "another build's profile invisible" true
    (Checkpoint_store.find_profile (make_store ~fingerprint:"other" ~dir ())
       ~key:"p"
    = None);
  Checkpoint_store.put_profile store ~key:"p" ~payload:"replaced";
  Alcotest.(check (option string)) "put replaces" (Some "replaced")
    (Checkpoint_store.find_profile store ~key:"p");
  Alcotest.(check int) "one file per key" 1 (List.length (profile_files dir))

let test_store_profile_corruption () =
  let check_damaged name damage =
    with_temp_dir @@ fun dir ->
    let store = make_store ~dir () in
    Checkpoint_store.put_profile store ~key:"p" ~payload:(String.make 256 'o');
    List.iter damage (profile_files dir);
    Alcotest.(check bool) (name ^ " is a miss") true
      (Checkpoint_store.find_profile store ~key:"p" = None);
    Alcotest.(check int) (name ^ " deleted") 0 (List.length (profile_files dir));
    Alcotest.(check int) (name ^ " uncounted") 0 (Checkpoint_store.bytes store)
  in
  check_damaged "truncated" (truncate_file ~len:40);
  check_damaged "bit-flipped" (damage_file ~at:60)

(* Lookups answer from the index, so a file deleted behind an open
   instance's back is a miss (and leaves the count), never an exception;
   and a file another instance writes is seen only at the next scan. *)
let test_store_index_visibility () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~key:"k" ~time:10.0 "ckpt";
  Checkpoint_store.put_profile store ~key:"p" ~payload:"prof";
  List.iter Sys.remove (ckpt_files dir @ profile_files dir);
  Alcotest.(check bool) "deleted checkpoint is a miss" true
    (Checkpoint_store.lookup store ~key:"k" ~before:infinity = None);
  Alcotest.(check bool) "deleted profile is a miss" true
    (Checkpoint_store.find_profile store ~key:"p" = None);
  Alcotest.(check int) "deleted files uncounted" 0 (Checkpoint_store.bytes store);
  let other = make_store ~dir () in
  put other ~key:"k" ~time:20.0 "other's";
  Checkpoint_store.put_profile other ~key:"p" ~payload:"other's";
  Alcotest.(check bool) "another writer's checkpoint unseen before a scan"
    true
    (Checkpoint_store.lookup store ~key:"k" ~before:infinity = None);
  Alcotest.(check bool) "another writer's profile unseen before a scan" true
    (Checkpoint_store.find_profile store ~key:"p" = None);
  let rescanned = make_store ~dir () in
  Alcotest.(check bool) "seen after a scan" true
    (Checkpoint_store.lookup rescanned ~key:"k" ~before:infinity
     = Some (20.0, "other's")
    && Checkpoint_store.find_profile rescanned ~key:"p" = Some "other's")

(* Profiles are priced and evicted like checkpoints: oldest mtime first. *)
let test_store_profile_evicted () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:1 ~dir () in
  Checkpoint_store.put_profile store ~key:"p"
    ~payload:(String.make 600_000 'p');
  Alcotest.(check int) "profile counted"
    (List.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0
       (profile_files dir))
    (Checkpoint_store.bytes store);
  List.iter (fun p -> Unix.utimes p 1e9 1e9) (profile_files dir);
  put store ~key:"k" ~time:10.0 (String.make 600_000 'c');
  Alcotest.(check int) "one eviction" 1 (Checkpoint_store.evictions store);
  Alcotest.(check bool) "the older profile went" true
    (Checkpoint_store.find_profile store ~key:"p" = None
    && Checkpoint_store.lookup store ~key:"k" ~before:infinity <> None)

(* [f] with AVIS_STORE_DIR naming [dir]; an empty value counts as unset. *)
let with_store_env dir f =
  let saved = Option.value (Sys.getenv_opt "AVIS_STORE_DIR") ~default:"" in
  Unix.putenv "AVIS_STORE_DIR" dir;
  Fun.protect ~finally:(fun () -> Unix.putenv "AVIS_STORE_DIR" saved) f

let profile_cell ?(seed = 3) ?(profiling_runs = 8) () =
  {
    (Campaign.default_config Policy.apm Workload.quickstart) with
    Campaign.budget_s = 60.0;
    seed;
    profiling_runs;
  }

let run_cell config = Campaign.run config ~strategy:(fun ctx -> Sabre.make ctx)

(* What the profile decides and what the cell records, by their bits: τ,
   the normalisers and the journal record (measured time left out). *)
let cell_bits config (r : Campaign.result) =
  let p = r.Campaign.profile in
  let n = Monitor.normalisers p in
  ( List.map Int64.bits_of_float
      [ Monitor.tau p; Distance.p_hat n; Distance.a_hat n ],
    Campaign.record_of_result config ~approach:"sabre" ~fingerprint:"fp" r )

let check_source msg expected (r : Campaign.result) =
  Alcotest.(check bool) msg true (r.Campaign.profile_source = expected)

let test_profile_served_on_rerun () =
  with_temp_dir @@ fun dir ->
  with_store_env dir @@ fun () ->
  let config = profile_cell () in
  let first = run_cell config in
  check_source "first run flies" Avis_util.Metrics.Profile_run first;
  Alcotest.(check int) "one profile written" 1 (List.length (profile_files dir));
  let second = run_cell config in
  check_source "rerun served" Avis_util.Metrics.Profile_store second;
  Alcotest.(check bool) "τ, normalisers and record bit-equal" true
    (cell_bits config first = cell_bits config second)

let test_profile_damage_reflown () =
  List.iter
    (fun (name, damage) ->
      with_temp_dir @@ fun dir ->
      with_store_env dir @@ fun () ->
      let config = profile_cell () in
      let first = run_cell config in
      List.iter damage (profile_files dir);
      let reflown = run_cell config in
      check_source (name ^ ": re-flown") Avis_util.Metrics.Profile_run reflown;
      Alcotest.(check bool) (name ^ ": identical") true
        (cell_bits config first = cell_bits config reflown);
      let served = run_cell config in
      check_source (name ^ ": rewritten and served")
        Avis_util.Metrics.Profile_store served;
      Alcotest.(check bool) (name ^ ": served identical") true
        (cell_bits config first = cell_bits config served))
    [ ("truncated", truncate_file ~len:100); ("bit-flipped", damage_file ~at:300) ]

let test_profile_key_misses () =
  with_temp_dir @@ fun dir ->
  with_store_env dir @@ fun () ->
  check_source "base" Avis_util.Metrics.Profile_run (run_cell (profile_cell ()));
  check_source "other profiling_runs" Avis_util.Metrics.Profile_run
    (run_cell (profile_cell ~profiling_runs:4 ()));
  check_source "other seed" Avis_util.Metrics.Profile_run
    (run_cell (profile_cell ~seed:4 ()));
  Alcotest.(check int) "three profiles" 3 (List.length (profile_files dir))

let () =
  Alcotest.run "avis_store"
    [
      ( "codec",
        [
          Alcotest.test_case "calm flight round-trips" `Quick test_roundtrip_calm;
          Alcotest.test_case "windy flight round-trips" `Quick
            test_roundtrip_windy;
          Alcotest.test_case "mid-fault snapshot round-trips" `Quick
            test_roundtrip_mid_fault;
          Alcotest.test_case "auto-box/px4 round-trips" `Slow
            test_roundtrip_auto_box_px4;
          Alcotest.test_case "fence-mission/px4 known bug round-trips" `Quick
            test_roundtrip_fence_known_bug;
          QCheck_alcotest.to_alcotest ~long:false qcheck_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_of_bytes_rejects_garbage;
          Alcotest.test_case "outcome round-trips" `Quick test_outcome_roundtrip;
        ] );
      ( "hostile bytes",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_fuzz_truncated;
          QCheck_alcotest.to_alcotest ~long:false qcheck_fuzz_bitflip;
          QCheck_alcotest.to_alcotest ~long:false qcheck_fuzz_random;
          Alcotest.test_case "decoded counts bounded" `Quick
            test_decode_counts_bounded;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/lookup round-trip" `Quick test_store_put_lookup;
          Alcotest.test_case "put is idempotent and lazy" `Quick
            test_store_put_is_idempotent_and_lazy;
          Alcotest.test_case "corruption is a counted miss" `Quick
            test_store_corruption_is_a_miss;
          Alcotest.test_case "corrupt newest falls back to older" `Quick
            test_store_corrupt_newest_falls_back_to_older;
          Alcotest.test_case "stale fingerprint invisible" `Quick
            test_store_stale_fingerprint_invisible;
          Alcotest.test_case "eviction keeps bytes bounded" `Quick
            test_store_eviction_bounded;
          Alcotest.test_case "byte count tracks the directory" `Quick
            test_store_bytes_track_dir;
          Alcotest.test_case "mtime-tie eviction is path-deterministic" `Quick
            test_store_eviction_mtime_tiebreak;
          Alcotest.test_case "AVIS_STORE_MB guard" `Quick test_store_mb_guard;
          Alcotest.test_case "AVIS_CACHE_MB guard" `Slow test_cache_mb_guard;
        ] );
      ( "shared store",
        [
          Alcotest.test_case "fresh instance serves from disk" `Slow
            test_store_shared_across_instances;
          Alcotest.test_case "vandalised store still identical" `Slow
            test_store_vandalised_dir_still_identical;
          Alcotest.test_case "one file per faulty scenario" `Slow
            test_store_keeps_final_captures;
          Alcotest.test_case "fresh instance forks at final captures" `Slow
            test_store_serves_final_captures;
          Alcotest.test_case "a lookup reads only the served file" `Slow
            test_store_reads_only_the_served_file;
          Alcotest.test_case "corrupt winner falls back" `Slow
            test_store_corrupt_winner_falls_back;
          Alcotest.test_case "stacked extension identical" `Slow
            test_store_extension_identical;
        ] );
      ( "profile store",
        [
          Alcotest.test_case "put/find round-trip" `Quick
            test_store_profile_roundtrip;
          Alcotest.test_case "corrupt profile deleted" `Quick
            test_store_profile_corruption;
          Alcotest.test_case "index visibility" `Quick
            test_store_index_visibility;
          Alcotest.test_case "profiles evicted like checkpoints" `Quick
            test_store_profile_evicted;
          Alcotest.test_case "rerun serves the profile" `Slow
            test_profile_served_on_rerun;
          Alcotest.test_case "damaged profile re-flown" `Slow
            test_profile_damage_reflown;
          Alcotest.test_case "profiling_runs or seed misses" `Slow
            test_profile_key_misses;
        ] );
    ]
