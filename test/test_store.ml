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
   end, from which a rerun takes no step; the stored monitor profile must
   be the built one. *)

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

(* ------------------------------------------------------------------ *)
(* Chunked trace codec                                                  *)
(* ------------------------------------------------------------------ *)

(* A chunk store in memory: each chunk's bytes ([Trace.encode_chunk])
   under their MD5, as [Checkpoint_store.put_chunk] names them, and each
   chunk decoded once,
   as the prefix cache decodes it, so every trace decoded through one
   store shares its chunks. *)
let memory_chunks () =
  let bytes = Hashtbl.create 8 and decoded = Hashtbl.create 8 in
  let put_chunk c =
    let b = Trace.encode_chunk c in
    let name = Digest.string b in
    Hashtbl.replace bytes name b;
    name
  in
  let get_chunk name =
    match Hashtbl.find_opt decoded name with
    | Some c -> c
    | None -> (
      match Hashtbl.find_opt bytes name with
      | Some b ->
        let c = Trace.decode_chunk b in
        Hashtbl.add decoded name c;
        c
      | None -> Avis_util.Codec.corrupt "no such chunk")
  in
  (bytes, put_chunk, get_chunk)

(* A sample: six floats of any bits (NaNs and signed zeros included) and
   a mode label. Labels are built afresh, so equal labels are never one
   string. *)
type row = { floats : float array; label : string }

let record_rows tr ~from rows =
  let world = Avis_physics.World.create () in
  let body = Avis_physics.World.body world in
  List.iteri
    (fun k r ->
      let f = r.floats in
      Avis_physics.Rigid_body.set_position body (Vec3.make f.(0) f.(1) f.(2));
      Avis_physics.Rigid_body.set_acceleration body (Vec3.make f.(3) f.(4) f.(5));
      Trace.record tr ~steps:(from + k) ~dt:0.1 world ~mode:r.label)
    rows

let live_trace rows =
  let tr = Trace.create ~period:0.0 () in
  record_rows tr ~from:0 rows;
  tr

(* Every column of a trace by its bits, and every label by its content. *)
let columns tr =
  List.init (Trace.length tr) (fun i ->
      ( List.map Int64.bits_of_float
          [ Trace.time tr i; Trace.px tr i; Trace.py tr i; Trace.pz tr i;
            Trace.ax tr i; Trace.ay tr i; Trace.az tr i ],
        Trace.mode tr i ))

let labels = [| "Auto"; "Land"; "RTL"; ""; String.make 40 'x' |]

(* [len] samples in runs of one label: many runs of one sample, and some
   long enough to cross a chunk boundary. *)
let gen_rows len =
  let open QCheck.Gen in
  let row label =
    let+ bits = array_size (return 6) ui64 in
    { floats = Array.map Int64.float_of_bits bits;
      label = Bytes.to_string (Bytes.of_string label) }
  in
  let rec runs left =
    if left = 0 then return []
    else
      let* n =
        frequency
          [ (3, return 1); (2, int_range 1 20); (1, int_range 1 400) ]
      in
      let n = Int.min n left in
      let* label = oneofa labels in
      let* run = list_repeat n (row label) in
      let+ rest = runs (left - n) in
      run @ rest
  in
  runs len

let arb_trace_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (rows, a, b) ->
      Printf.sprintf "%d samples, continued by %d and %d" (List.length rows)
        (List.length a) (List.length b))
    (let* len = oneofl [ 0; 1; 255; 256; 257; 512; 513 ] in
     let* rows = gen_rows len in
     let* a = int_range 0 300 >>= gen_rows in
     let+ b = int_range 0 300 >>= gen_rows in
     (rows, a, b))

(* With its full chunks filed apart, a snapshot decodes to the trace the
   inline codec gives and to the live one, bit for bit, and re-encodes to
   the same bytes. Traces restored from it through one chunk store (two
   from one decoded snapshot, one from another decode) share their full
   chunks, and each records on exactly as a trace that recorded
   everything itself. *)
let qcheck_chunked_trace =
  QCheck.Test.make ~count:150 ~name:"chunked trace codec = inline = live"
    arb_trace_case (fun (rows, a, b) ->
      let live = live_trace rows in
      let snap = Trace.snapshot live in
      let chunks, put_chunk, get_chunk = memory_chunks () in
      let inline = Avis_util.Codec.to_string Trace.encode_snapshot snap in
      let chunked =
        Avis_util.Codec.to_string (Trace.encode_snapshot ~put_chunk) snap
      in
      let decode ?get_chunk bytes =
        Trace.restore
          (Avis_util.Codec.of_string (Trace.decode_snapshot ?get_chunk) bytes)
      in
      let from_inline = decode inline in
      let shared =
        Avis_util.Codec.of_string (Trace.decode_snapshot ~get_chunk) chunked
      in
      let first = Trace.restore shared and second = Trace.restore shared in
      let third = decode ~get_chunk chunked in
      let n = List.length rows in
      let reencoded =
        Avis_util.Codec.to_string (Trace.encode_snapshot ~put_chunk)
          (Trace.snapshot first)
      in
      let same = columns live in
      Hashtbl.length chunks = n / 256
      && columns from_inline = same
      && columns first = same
      && columns second = same
      && columns third = same
      && String.equal reencoded chunked
      && begin
           record_rows first ~from:n a;
           record_rows second ~from:n b;
           record_rows third ~from:n a;
           columns first = columns (live_trace (rows @ a))
           && columns second = columns (live_trace (rows @ b))
           && columns third = columns first
           && columns live = same
         end)

(* ------------------------------------------------------------------ *)
(* Hostile snapshot bytes                                               *)
(* ------------------------------------------------------------------ *)

(* Decoders face arbitrary disk bytes: partial writes, bit rot, other
   processes' files. Whatever the damage, the only observable failure is
   [Codec.Corrupt] — in particular no [Out_of_memory] or [Invalid_argument]
   from allocating a length prefix the buffer cannot possibly back. A
   damaged buffer that still decodes cleanly is fine (a flipped float bit
   is just a different float); raising anything else is the bug. *)

(* The exemplars' chunk store: a checkpoint payload names its chunks in
   it. *)
let exemplar_chunks = memory_chunks ()

(* A simulator and a stepper, paused mid-flight, encoded; then a
   checkpoint file's payload, as the prefix cache stores it, of a run past
   its first full trace chunk; a profile file's payload, of two
   quickstart runs; and that chunk's bytes. *)
let exemplar_bytes =
  lazy
    (let sim, st = paused_run Workload.quickstart Policy.apm ~until:8.0 in
     let chunks, put_chunk, _ = exemplar_chunks in
     let long, long_st = paused_run Workload.auto_box Policy.apm ~until:30.0 in
     let payload =
       Avis_util.Codec.to_string
         (fun b () ->
           Sim.encode_snapshot ~put_chunk b (Sim.snapshot long);
           Avis_util.Codec.w_bytes b (encode_stepper long_st))
         ()
     in
     Array.of_list
       ([
          encode_sim sim;
          encode_stepper st;
          payload;
          Campaign.encode_built_profile
            (Campaign.fly_profile
               {
                 (Campaign.default_config Policy.apm Workload.quickstart) with
                 Campaign.profiling_runs = 2;
               });
        ]
       @ List.of_seq (Hashtbl.to_seq_values chunks)))

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
    ( "checkpoint payload with chunks",
      fun s ->
        let _, _, get_chunk = exemplar_chunks in
        let config = sim_config Workload.auto_box Policy.apm in
        Avis_util.Codec.of_string
          (fun r ->
            let snap = Sim.decode_snapshot ~get_chunk ~config r in
            ignore (decode_stepper Workload.auto_box (Avis_util.Codec.r_bytes r));
            ignore (Sim.restore ~plan:[] ~link_outages:[] snap))
          s );
    ("Trace.decode_chunk", fun s -> ignore (Trace.decode_chunk s));
    ( "Campaign.decode_built_profile",
      fun s -> ignore (Campaign.decode_built_profile s) );
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
    QCheck.(pair (float_range 0.0 1.0) (int_range 0 4))
    (fun (frac, which) ->
      let bytes = (Lazy.force exemplar_bytes).(which) in
      let cut =
        min (String.length bytes - 1)
          (int_of_float (frac *. float_of_int (String.length bytes)))
      in
      only_corrupt (String.sub bytes 0 cut))

let qcheck_fuzz_bitflip =
  QCheck.Test.make ~count:120 ~name:"bit-flipped snapshot bytes: only Corrupt"
    QCheck.(triple (float_range 0.0 1.0) (int_range 0 7) (int_range 0 4))
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

(* What a prefix-cache lookup calls: the latest indexed checkpoint before
   [before], then its file. *)
let served store ~key ~before =
  Option.bind (Checkpoint_store.latest store ~key ~before) (fun time ->
      Option.map
        (fun payload -> (time, payload))
        (Checkpoint_store.load store ~key ~time ~decode:Fun.id))

let put_profile store ~key payload =
  Checkpoint_store.put_profile store ~key ~payload:(lazy payload)

let find_profile store ~key =
  Checkpoint_store.find_profile store ~key ~decode:Fun.id

let test_store_put_lookup () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~key:"" ~time:10.0 "clean@10";
  put store ~key:"" ~time:20.0 "clean@20";
  put store ~key:"gps@x" ~time:15.0 "faulty@15";
  (match served store ~key:"" ~before:15.0 with
  | Some (t, p) ->
    Alcotest.(check (float 0.0)) "time" 10.0 t;
    Alcotest.(check string) "payload" "clean@10" p
  | None -> Alcotest.fail "expected clean@10");
  (match served store ~key:"" ~before:infinity with
  | Some (t, _) -> Alcotest.(check (float 0.0)) "latest first" 20.0 t
  | None -> Alcotest.fail "expected clean@20");
  (* [before] is strict: a checkpoint at exactly the injection time could
     already contain the fault's first effects. *)
  Alcotest.(check bool) "strictly before" true
    (served store ~key:"" ~before:10.0 = None);
  (match served store ~key:"gps@x" ~before:infinity with
  | Some (_, p) -> Alcotest.(check string) "keys are isolated" "faulty@15" p
  | None -> Alcotest.fail "expected faulty@15");
  Alcotest.(check bool) "unknown key" true
    (served store ~key:"other" ~before:infinity = None)

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
  match served store ~key:"" ~before:infinity with
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
      (served store ~key:"" ~before:infinity = None);
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
        String.length d > 28 && String.sub d 28 (String.length d - 28) = "newer")
      (ckpt_files dir)
  in
  damage_file ~at:30 newer;
  (* The newest fails to load and leaves the index, so the next [latest]
     names the older one. *)
  let latest () = Checkpoint_store.latest store ~key:"" ~before:infinity in
  let load time = Checkpoint_store.load store ~key:"" ~time ~decode:Fun.id in
  Alcotest.(check (option (float 0.0))) "newest named" (Some 20.0) (latest ());
  Alcotest.(check (option string)) "damaged newest is a miss" None (load 20.0);
  Alcotest.(check (option (float 0.0))) "older served" (Some 10.0) (latest ());
  Alcotest.(check (option string)) "older payload" (Some "older") (load 10.0)

(* A store directory whose parents are missing is made with them, and a
   fresh instance is served what the first one wrote. *)
let test_store_missing_parents_made () =
  with_temp_dir @@ fun root ->
  let dir = Filename.concat (Filename.concat root "a") "b" in
  put (make_store ~dir ()) ~key:"" ~time:10.0 "kept";
  Alcotest.(check (option (pair (float 0.0) string)))
    "served" (Some (10.0, "kept"))
    (served (make_store ~dir ()) ~key:"" ~before:infinity)

let test_store_stale_fingerprint_invisible () =
  with_temp_dir @@ fun dir ->
  let old_build = make_store ~fingerprint:"build-a" ~dir () in
  put old_build ~key:"" ~time:10.0 "from build a";
  let new_build = make_store ~fingerprint:"build-b" ~dir () in
  Alcotest.(check bool) "other build's checkpoints invisible" true
    (served new_build ~key:"" ~before:infinity = None)

(* Opened without [?fingerprint], a store and a journal key with the
   build's fingerprint: the journal's header carries it, a store names its
   files by it, and another default instance (another executable of the
   build) is served what the first wrote. *)
let test_default_fingerprint_is_the_build () =
  with_temp_dir @@ fun dir ->
  with_temp_dir @@ fun store_dir ->
  let hex = Avis_fingerprint.hex in
  Alcotest.(check bool) "32 lowercase hex digits" true
    (String.length hex = 32
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
         hex);
  let path = Filename.concat dir "journal.jsonl" in
  Alcotest.(check string) "journal keys with it" hex
    (Run_journal.fingerprint (Run_journal.open_ path));
  let header = In_channel.with_open_text path input_line in
  Alcotest.(check bool) "journal header carries it" true
    (match Avis_util.Json.of_string header with
    | Ok j ->
      Avis_util.Json.member "fingerprint" j = Some (Avis_util.Json.String hex)
    | Error _ -> false);
  put_profile (Checkpoint_store.create ~dir:store_dir ()) ~key:"p" "outcomes";
  Alcotest.(check bool) "store names its file by it" true
    (Sys.file_exists
       (Filename.concat store_dir
          (Digest.to_hex (Digest.string (hex ^ "\x00p")) ^ ".prof")));
  Alcotest.(check (option string)) "another default instance is served"
    (Some "outcomes")
    (find_profile (Checkpoint_store.create ~dir:store_dir ()) ~key:"p");
  Alcotest.(check (option string)) "another fingerprint is not" None
    (find_profile
       (Checkpoint_store.create ~fingerprint:"other" ~dir:store_dir ())
       ~key:"p")

let test_store_eviction_bounded () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:1 ~dir () in
  let big = String.make 700_000 'x' in
  put store ~key:"" ~time:10.0 big;
  put store ~key:"" ~time:20.0 (String.make 700_000 'y');
  Alcotest.(check bool) "bytes within budget" true
    (Checkpoint_store.bytes store <= 1024 * 1024);
  Alcotest.(check int) "evicted the older file" 1
    (List.length (ckpt_files dir))

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
  Alcotest.(check (option string)) "damaged newest is a miss" None
    (Checkpoint_store.load store ~key:"" ~time:20.0 ~decode:Fun.id);
  (match served store ~key:"" ~before:infinity with
  | Some (_, p) -> Alcotest.(check string) "older served" "kept" p
  | None -> Alcotest.fail "expected the older checkpoint");
  check "corrupt file deleted";
  put store ~key:"" ~time:30.0 (String.make 700_000 'a');
  put store ~key:"" ~time:40.0 (String.make 700_000 'b');
  Alcotest.(check bool) "evicted something" true
    (List.length (ckpt_files dir) < 3);
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
    match served store ~key:"" ~before:infinity with
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

(* ------------------------------------------------------------------ *)
(* Prefix cache over a shared store                                     *)
(* ------------------------------------------------------------------ *)

let quickstart_targets = List.init 30 (fun i -> float_of_int (i + 1))

let store_cache ?(workload = Workload.quickstart) ?(targets = quickstart_targets)
    ~store_dir () =
  let policy = Policy.apm in
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
      ~checkpoint_times:targets (),
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
  let cache1, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold ~msg:"first instance = cold" cache1 make_sim workload;
  let s1 = Prefix_cache.stats cache1 in
  Alcotest.(check bool) "first instance wrote checkpoints" true
    (s1.Prefix_cache.store_bytes > 0);
  (* A fresh instance — empty memory, same dir — is the warm-process path:
     everything it restores comes off disk. *)
  let cache2, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold ~msg:"second instance = cold" cache2 make_sim
    workload;
  let s2 = Prefix_cache.stats cache2 in
  Alcotest.(check bool) "second instance served from the store" true
    (s2.Prefix_cache.store_hits > 0);
  Alcotest.(check bool) "second instance skipped simulated time" true
    (s2.Prefix_cache.saved_sim_s > 0.0)

(* With one lookup over memory and the store, the later checkpoint wins
   whichever tier holds it. A fresh instance serves an early fault from
   the stored clean capture before it, which memory then holds too; a
   later fault must still fork from the stored clean capture just before
   it, not from that early one in memory. *)
let test_store_later_tier_wins () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold ~scenarios:[ Scenario.empty ] ~msg:"fill = cold"
    cache1 make_sim workload;
  let baro at =
    Scenario.of_faults
      [ Scenario.sensor_fault { Sensor.kind = Sensor.Barometer; index = 0 } at ]
  in
  let cache2, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold ~scenarios:[ baro 3.5 ] ~msg:"early = cold" cache2
    make_sim workload;
  let early = Prefix_cache.stats cache2 in
  Alcotest.(check int) "the early fault from the store" 1
    early.Prefix_cache.store_hits;
  check_cache_against_cold ~scenarios:[ baro 20.5 ] ~msg:"late = cold" cache2
    make_sim workload;
  let late = Prefix_cache.stats cache2 in
  Alcotest.(check int) "the late fault from the store" 2
    late.Prefix_cache.store_hits;
  Alcotest.(check bool) "forked just before the late fault" true
    (late.Prefix_cache.saved_sim_s -. early.Prefix_cache.saved_sim_s > 19.0)

let test_store_vandalised_dir_still_identical () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim1, workload1 = store_cache ~store_dir () in
  check_cache_against_cold ~msg:"populate" cache1 make_sim1 workload1;
  (* Truncate every checkpoint: the next instance must detect each one,
     count misses, and run cold with bit-identical outcomes. *)
  List.iter (fun p -> truncate_file ~len:40 p) (ckpt_files store_dir);
  let cache2, make_sim, workload = store_cache ~store_dir () in
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
   every target the clean run reached, and each scenario's end, under the
   key of the faults active there: the clean run's beside its captures,
   and one file for each scenario whose first fault came before its end.
   Every other faulty capture stays in memory. *)
let test_store_keeps_final_captures () =
  with_temp_dir @@ fun store_dir ->
  let cache, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold ~msg:"fill = cold" cache make_sim workload;
  let faulty_at_end scenario =
    let sim = make_sim ~scenario in
    ignore (Workload.execute workload sim : bool);
    first_fault scenario <= Sim.time sim
  in
  let faulty = List.filter faulty_at_end (store_scenarios ()) in
  let clean = targets_reached make_sim workload ~scenario:Scenario.empty in
  Alcotest.(check (list int)) "files per key hash"
    (List.map (fun _ -> 1) faulty @ [ List.length clean + 1 ])
    (List.sort compare (List.map List.length (times_by_hash store_dir)))

(* A fresh instance forks every scenario from the file its fill left: each
   one restored at its final capture, so the simulated time it skips is the
   sum of those captures' times. *)
let test_store_serves_final_captures () =
  with_temp_dir @@ fun store_dir ->
  let cache1, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold ~msg:"fill = cold" cache1 make_sim workload;
  let finals =
    List.fold_left
      (fun acc times -> acc +. List.fold_left Float.max 0.0 times)
      0.0 (times_by_hash store_dir)
  in
  let cache2, make_sim, workload = store_cache ~store_dir () in
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
  let cache1, make_sim, workload = store_cache ~store_dir () in
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
  let cache2, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold
    ~scenarios:(stacked @ store_scenarios ())
    ~msg:"extension = cold" cache2 make_sim workload;
  Alcotest.(check int) "every scenario forked" 0
    (Prefix_cache.stats cache2).Prefix_cache.misses

(* Re-frame a checkpoint file around the first half of its payload: the
   frame's checksum holds, but the payload does not decode. *)
(* A run's end is its last checkpoint. A fresh instance serves a scenario
   that adds a fault after a stored run's end from that end: the run stops
   at the same step whatever comes later, so it takes no step, and its
   outcome is a cold run's, bit for bit. *)
let test_store_fault_after_end_served () =
  with_temp_dir @@ fun store_dir ->
  let baro = { Sensor.kind = Sensor.Barometer; index = 0 } in
  let base = Scenario.of_faults [ Scenario.sensor_fault baro 12.5 ] in
  let cache1, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold ~scenarios:[ base ] ~msg:"fill = cold" cache1
    make_sim workload;
  let sim = make_sim ~scenario:base in
  ignore (Workload.execute workload sim : bool);
  let gps = { Sensor.kind = Sensor.Gps; index = 0 } in
  let later =
    Scenario.of_faults
      [ Scenario.sensor_fault baro 12.5; Scenario.sensor_fault gps (Sim.time sim +. 5.0) ]
  in
  let cache2, _, _ = store_cache ~store_dir () in
  check_cache_against_cold ~scenarios:[ later ] ~msg:"served = cold" cache2
    make_sim workload;
  let s = Prefix_cache.stats cache2 in
  Alcotest.(check int) "from the store" 1 s.Prefix_cache.store_hits;
  Alcotest.(check int) "none cold" 0 s.Prefix_cache.misses;
  Alcotest.(check (float 0.0)) "restored at the base run's end"
    (Vehicle.time (Sim.vehicle sim))
    s.Prefix_cache.saved_sim_s

let halve_payload path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let payload = String.sub data 28 (String.length data - 28) in
  let half = String.sub payload 0 (String.length payload / 2) in
  let b = Buffer.create (28 + String.length half) in
  Buffer.add_string b (String.sub data 0 4);
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
  let cache1, make_sim, workload = store_cache ~store_dir () in
  check_cache_against_cold ~msg:"fill = cold" cache1 make_sim workload;
  let files = ckpt_files store_dir and old = 1e9 in
  List.iter (fun p -> Unix.utimes p old old) files;
  let cache2, make_sim, workload = store_cache ~store_dir () in
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
    let cache, make_sim, workload = store_cache ~store_dir () in
    check_cache_against_cold ~scenarios:[ scenario ] ~msg:"fill = cold" cache
      make_sim workload;
    List.sort
      (fun a b -> Float.compare (capture_time b) (capture_time a))
      (ckpt_files store_dir)
  in
  let serve store_dir =
    let cache, make_sim, workload = store_cache ~store_dir () in
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
    (find_profile store ~key:"p" = None);
  put_profile store ~key:"p" "outcomes";
  Alcotest.(check (option string)) "served" (Some "outcomes")
    (find_profile store ~key:"p");
  Alcotest.(check bool) "keys are isolated" true
    (find_profile store ~key:"q" = None);
  Alcotest.(check bool) "a profile is no checkpoint" true
    (served store ~key:"p" ~before:infinity = None);
  Alcotest.(check (option string)) "a fresh instance finds it"
    (Some "outcomes")
    (find_profile (make_store ~dir ()) ~key:"p");
  Alcotest.(check bool) "another build's profile invisible" true
    (find_profile (make_store ~fingerprint:"other" ~dir ()) ~key:"p" = None);
  put_profile store ~key:"p" "replaced";
  Alcotest.(check (option string)) "first write wins" (Some "outcomes")
    (find_profile store ~key:"p");
  Alcotest.(check int) "one file per key" 1 (List.length (profile_files dir))

let test_store_profile_corruption () =
  let check_damaged name damage =
    with_temp_dir @@ fun dir ->
    let store = make_store ~dir () in
    put_profile store ~key:"p" (String.make 256 'o');
    List.iter damage (profile_files dir);
    Alcotest.(check bool) (name ^ " is a miss") true
      (find_profile store ~key:"p" = None);
    Alcotest.(check int) (name ^ " deleted") 0 (List.length (profile_files dir));
    Alcotest.(check int) (name ^ " uncounted") 0 (Checkpoint_store.bytes store)
  in
  check_damaged "truncated" (truncate_file ~len:40);
  check_damaged "bit-flipped" (damage_file ~at:60)

(* [latest] answers from the index, so a file deleted behind an open
   instance's back is a miss (and leaves the count), never an exception,
   and a checkpoint another instance writes is seen only at the next scan.
   Every read opens its file, so a profile another instance writes is read
   at once. *)
let test_store_index_visibility () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~dir () in
  put store ~key:"k" ~time:10.0 "ckpt";
  put_profile store ~key:"p" "prof";
  List.iter Sys.remove (ckpt_files dir @ profile_files dir);
  Alcotest.(check bool) "deleted checkpoint is a miss" true
    (served store ~key:"k" ~before:infinity = None);
  Alcotest.(check bool) "deleted profile is a miss" true
    (find_profile store ~key:"p" = None);
  Alcotest.(check int) "deleted files uncounted" 0 (Checkpoint_store.bytes store);
  let other = make_store ~dir () in
  put other ~key:"k" ~time:20.0 "other's";
  put_profile other ~key:"p" "other's";
  Alcotest.(check bool) "another writer's checkpoint unseen before a scan"
    true
    (served store ~key:"k" ~before:infinity = None);
  Alcotest.(check (option string)) "another writer's profile read at once"
    (Some "other's") (find_profile store ~key:"p");
  let rescanned = make_store ~dir () in
  Alcotest.(check bool) "seen after a scan" true
    (served rescanned ~key:"k" ~before:infinity
     = Some (20.0, "other's")
    && find_profile rescanned ~key:"p" = Some "other's")

(* Profiles are priced and evicted like checkpoints: oldest mtime first. *)
let test_store_profile_evicted () =
  with_temp_dir @@ fun dir ->
  let store = make_store ~store_mb:1 ~dir () in
  put_profile store ~key:"p" (String.make 600_000 'p');
  Alcotest.(check int) "profile counted"
    (List.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0
       (profile_files dir))
    (Checkpoint_store.bytes store);
  List.iter (fun p -> Unix.utimes p 1e9 1e9) (profile_files dir);
  put store ~key:"k" ~time:10.0 (String.make 600_000 'c');
  Alcotest.(check int) "one file left" 1
    (List.length (profile_files dir @ ckpt_files dir));
  Alcotest.(check bool) "the older profile went" true
    (find_profile store ~key:"p" = None
    && served store ~key:"k" ~before:infinity <> None)

(* [f] with AVIS_STORE_DIR naming [dir]; an empty value counts as unset. *)
let with_store_env dir f =
  let saved = Option.value (Sys.getenv_opt "AVIS_STORE_DIR") ~default:"" in
  Unix.putenv "AVIS_STORE_DIR" dir;
  Fun.protect ~finally:(fun () -> Unix.putenv "AVIS_STORE_DIR" saved) f

let profile_cell ?(workload = Workload.quickstart) ?(budget_s = 60.0) ?(seed = 3)
    ?(profiling_runs = 8) () =
  {
    (Campaign.default_config Policy.apm workload) with
    Campaign.budget_s;
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

(* The bits of everything a stored profile holds or is rebuilt from on
   decode: the encoded monitor profile (the padded columns, mode ids and
   labels, mode distances, P̂, Â, both spreads, τ under each metric and
   the altitude and home envelope), the mode graph's nodes, edges in
   order and distances, the label ids, and the search context's
   transitions and duration. *)
let profile_bits ((p : Monitor.profile), (ctx : Search.context)) =
  let g = Monitor.graph p and n = Monitor.normalisers p in
  let modes = Mode_graph.modes g in
  ( Avis_util.Codec.to_string Monitor.encode p,
    ( modes,
      Mode_graph.edges g,
      Mode_graph.diameter g,
      List.concat_map
        (fun a -> List.map (fun b -> Mode_graph.distance g a b) modes)
        modes,
      List.map (Distance.mode_id n) ("no such mode" :: modes) ),
    List.map Int64.bits_of_float
      [
        Monitor.tau p;
        Distance.p_hat n;
        Distance.a_hat n;
        Distance.spread ~metric:Distance.Full n;
        Distance.spread ~metric:Distance.Position_only n;
      ],
    (ctx.Search.transitions, Int64.bits_of_float ctx.Search.mission_duration) )

(* A profile flown into a store directory, then served from it by a fresh
   instance. *)
let flown_and_served config =
  with_temp_dir @@ fun dir ->
  let flown, fctx, fsource =
    Campaign.profile_and_context ~store:(Checkpoint_store.create ~dir ()) config
  in
  let served, sctx, ssource =
    Campaign.profile_and_context ~store:(Checkpoint_store.create ~dir ()) config
  in
  Alcotest.(check bool) "flown" true (fsource = Avis_util.Metrics.Profile_run);
  Alcotest.(check bool) "served" true (ssource = Avis_util.Metrics.Profile_store);
  ((flown, fctx), (served, sctx))

let test_stored_profile_is_built () =
  List.iter
    (fun policy ->
      List.iter
        (fun workload ->
          List.iter
            (fun seed ->
              let config =
                {
                  (Campaign.default_config policy workload) with
                  Campaign.seed;
                  profiling_runs = 3;
                }
              in
              let built, stored = flown_and_served config in
              if profile_bits built <> profile_bits stored then
                Alcotest.failf "%s seed %d: the stored profile is not the built one"
                  (Campaign.label_of config ~approach:"profile")
                  seed)
            [ 1; 7 ])
        [ Workload.quickstart; Workload.auto_box; Workload.manual_box ])
    [ Policy.apm; Policy.px4 ]

(* Faulty runs judged against the stored profile get the built one's
   verdicts, under both metrics. *)
let test_stored_profile_judges_as_built () =
  let kind k = List.init 2 (fun index -> { Sensor.kind = k; index }) in
  let at t ids = Scenario.of_faults (List.map (fun id -> Scenario.sensor_fault id t) ids) in
  let scenarios =
    [
      at 15.0 (kind Sensor.Gps);
      at 8.0 (kind Sensor.Barometer);
      at 20.0 (kind Sensor.Compass);
      at 25.0 [ { Sensor.kind = Sensor.Gyroscope; index = 0 } ];
      Scenario.of_faults [ Scenario.link_loss ~at:12.0 ~duration:120.0 ];
    ]
  in
  List.iter
    (fun policy ->
      let config =
        {
          (Campaign.default_config policy Workload.auto_box) with
          Campaign.profiling_runs = 3;
        }
      in
      let (built, _), (stored, _) = flown_and_served config in
      let outcomes =
        List.map
          (fun scenario ->
            Campaign.execute_run config ~seed:(config.Campaign.seed + 1000)
              ~scenario)
          scenarios
      in
      let verdicts p =
        List.concat_map
          (fun o ->
            [ Monitor.check p o; Monitor.check ~metric:Distance.Position_only p o ])
          outcomes
      in
      Alcotest.(check bool) "some run unsafe" true
        (List.exists (fun v -> v <> Monitor.Safe) (verdicts built));
      Alcotest.(check bool) "same verdicts" true (verdicts built = verdicts stored))
    [ Policy.apm; Policy.px4 ]

(* ------------------------------------------------------------------ *)
(* Trace chunk files                                                    *)
(* ------------------------------------------------------------------ *)

let chunk_files = files_with ".chunk"

(* Auto-box runs outlast a trace chunk (256 samples, 25.6 s). *)
let auto_box_targets = List.init 40 (fun i -> float_of_int (i + 1))

let chunk_damage =
  [
    ("missing", Sys.remove);
    ("truncated", truncate_file ~len:40);
    ("bit-flipped", damage_file ~at:100);
  ]

(* A checkpoint that names a missing or damaged chunk file is a miss like a
   damaged checkpoint: deleted and out of the index. With every chunk
   damaged, the scenario forks from the latest checkpoint whose trace holds
   no full chunk, and its run files the damaged chunks and its final
   capture afresh. *)
let test_store_broken_chunk_falls_back () =
  let scenario =
    Scenario.of_faults
      [
        Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 0 } 30.0;
        Scenario.sensor_fault { Sensor.kind = Sensor.Gps; index = 1 } 30.0;
      ]
  in
  List.iter
    (fun (name, damage) ->
      with_temp_dir @@ fun store_dir ->
      let serve () =
        let cache, make_sim, workload =
          store_cache ~workload:Workload.auto_box ~targets:auto_box_targets
            ~store_dir ()
        in
        check_cache_against_cold ~scenarios:[ scenario ]
          ~msg:(name ^ ": served = cold") cache make_sim workload;
        Prefix_cache.stats cache
      in
      ignore (serve () : Prefix_cache.stats);
      let by_time =
        List.sort
          (fun a b -> Float.compare (capture_time b) (capture_time a))
          (ckpt_files store_dir)
      in
      let winner = List.hd by_time in
      (* The 256th sample is taken at 25.5 s. *)
      let next = List.find (fun p -> capture_time p < 25.5) by_time in
      Alcotest.(check bool) (name ^ ": the winner names a chunk") true
        (capture_time winner > 26.0 && chunk_files store_dir <> []);
      List.iter damage (chunk_files store_dir);
      Unix.utimes winner 1e9 1e9;
      let s = serve () in
      Alcotest.(check int) (name ^ ": a store hit") 1 s.Prefix_cache.store_hits;
      Alcotest.(check (float 0.0)) (name ^ ": forked at the next best")
        (capture_time next) s.Prefix_cache.saved_sim_s;
      (* A put skips a file that is there, so a fresh mtime means the
         winner was deleted and then written again. *)
      Alcotest.(check bool) (name ^ ": the winner deleted and rewritten") true
        ((Unix.stat winner).Unix.st_mtime <> 1e9);
      Alcotest.(check (float 0.0)) (name ^ ": chunks rewritten")
        (capture_time winner) (serve ()).Prefix_cache.saved_sim_s)
    chunk_damage

(* What a cell decides and records does not depend on the chunk files: a
   cell over a store whose chunks are missing or damaged records a cold
   cell's findings and spent budget, bit for bit, and so does a cell whose
   store evicts chunk files as it writes. *)
let chunk_cell ?budget_s () =
  profile_cell ~workload:Workload.auto_box ?budget_s ()

let cold_bits ?budget_s () =
  let config = chunk_cell ?budget_s () in
  with_store_env "" @@ fun () -> cell_bits config (run_cell config)

(* A warm rerun of a SABRE cell over a filled store is served from its
   runs' ends: every scenario is a store hit and takes no step, so the
   simulated time it skips is the sum of the scenarios' durations, which
   the ledger charged (SABRE charges no inference). It records the cold
   cell's τ, normalisers, findings and spent budget, bit for bit. *)
let test_warm_cell_served_from_ends () =
  let budget_s = 150.0 in
  let cold = cold_bits ~budget_s () in
  with_temp_dir @@ fun dir ->
  with_store_env dir @@ fun () ->
  let config = chunk_cell ~budget_s () in
  Alcotest.(check bool) "the fill = cold" true
    (cell_bits config (run_cell config) = cold);
  let warm = run_cell config in
  Alcotest.(check bool) "warm = cold" true (cell_bits config warm = cold);
  let s = Option.get warm.Campaign.cache_stats in
  Alcotest.(check int) "no inference" 0 warm.Campaign.inferences;
  Alcotest.(check bool) "several scenarios" true (warm.Campaign.simulations > 2);
  Alcotest.(check int) "every scenario from the store"
    warm.Campaign.simulations s.Prefix_cache.store_hits;
  Alcotest.(check int) "none cold" 0 s.Prefix_cache.misses;
  Alcotest.(check (float 1e-6)) "each restored at its end"
    (warm.Campaign.wall_clock_spent_s *. config.Campaign.speedup)
    s.Prefix_cache.saved_sim_s

let test_broken_chunks_cell_identical () =
  let cold = cold_bits () in
  List.iter
    (fun (name, damage) ->
      with_temp_dir @@ fun dir ->
      with_store_env dir @@ fun () ->
      let config = chunk_cell () in
      Alcotest.(check bool) (name ^ ": the fill = cold") true
        (cell_bits config (run_cell config) = cold);
      Alcotest.(check bool) (name ^ ": the store holds chunks") true
        (chunk_files dir <> []);
      List.iter damage (chunk_files dir);
      Alcotest.(check bool) (name ^ ": = cold") true
        (cell_bits config (run_cell config) = cold))
    chunk_damage

let file_size p = (Unix.stat p).Unix.st_size

(* Whether every checkpoint in [dir] loads: each trace chunk it names is
   served by the store. *)
let every_checkpoint_loads dir =
  let store = Checkpoint_store.create ~dir () in
  let get_chunk name =
    match Checkpoint_store.load_chunk store name ~decode:Trace.decode_chunk with
    | Some c -> c
    | None -> Avis_util.Codec.corrupt "chunk missing"
  in
  let config = Sim.default_config Policy.apm in
  List.for_all
    (fun path ->
      let data = In_channel.with_open_bin path In_channel.input_all in
      match
        Avis_util.Codec.of_string
          (fun r ->
            ignore (Sim.decode_snapshot ~get_chunk ~config r : Sim.snapshot);
            ignore (Avis_util.Codec.r_bytes r : string))
          (String.sub data 28 (String.length data - 28))
      with
      | () -> true
      | exception Avis_util.Codec.Corrupt _ -> false)
    (ckpt_files dir)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + file_size (Filename.concat dir f))
    0 (Sys.readdir dir)

(* A store whose 1 MiB bound, less a filler file newer than anything the
   cell writes, holds a quarter, then three quarters, of the checkpoint
   and chunk bytes the cell writes unbounded: the cell evicts as it
   writes, its profile and chunk files among the rest. Every checkpoint
   it leaves loads, because each checkpoint write keeps the chunks it
   names, and the cell records a cold cell's bits; so does a cell served
   over that store, which re-flies what was evicted. *)
let test_evicted_chunks_cell_identical () =
  let cold = cold_bits () in
  let config = chunk_cell () in
  let scenario_bytes, chunks_written =
    with_temp_dir @@ fun dir ->
    with_store_env dir @@ fun () ->
    ignore (run_cell config : Campaign.result);
    ( dir_bytes dir
      - List.fold_left (fun acc p -> acc + file_size p) 0 (profile_files dir),
      List.length (chunk_files dir) )
  in
  List.iter
    (fun quarters ->
      with_temp_dir @@ fun dir ->
      with_store_env dir @@ fun () ->
      let msg s = Printf.sprintf "%d/4 held: %s" quarters s in
      let filler = Filename.concat dir (String.make 32 'f' ^ ".prof") in
      Out_channel.with_open_bin filler (fun oc ->
          output_string oc
            (String.make ((1 lsl 20) - (scenario_bytes * quarters / 4)) 'f'));
      Unix.utimes filler 4e9 4e9;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "AVIS_STORE_MB" "1024")
        (fun () ->
          Unix.putenv "AVIS_STORE_MB" "1";
          Alcotest.(check bool) (msg "evicting = cold") true
            (cell_bits config (run_cell config) = cold);
          Alcotest.(check bool) (msg "chunk files evicted") true
            (List.length (chunk_files dir) < chunks_written);
          Alcotest.(check bool) (msg "every checkpoint left loads") true
            (every_checkpoint_loads dir);
          Alcotest.(check bool) (msg "served over evicted chunks = cold") true
            (cell_bits config (run_cell config) = cold);
          Alcotest.(check bool) (msg "every checkpoint left loads after it")
            true (every_checkpoint_loads dir)))
    [ 1; 3 ]

(* A put judges a chunk file by its size: a file that is not the size the
   bytes frame to is damaged, and the put forgets it and writes it again,
   so the checkpoints written after it do not name a chunk that can only
   miss. An instance that indexed the file at its scan reads the size from
   its index; one that did not stats the file. A file deleted behind an
   instance's index is written again too. *)
let test_store_put_rewrites_damaged_chunk () =
  with_temp_dir @@ fun dir ->
  let chunk = String.init 300 (fun i -> Char.chr (i land 0xFF)) in
  let unindexed = make_store ~dir () in
  let name = Checkpoint_store.put_chunk (make_store ~dir ()) chunk in
  let path = List.hd (chunk_files dir) in
  let loaded () =
    Checkpoint_store.load_chunk (make_store ~dir ()) name ~decode:Fun.id
  in
  truncate_file ~len:12 path;
  let rescanned = make_store ~dir () in
  Alcotest.(check string) "the same name" name
    (Checkpoint_store.put_chunk rescanned chunk);
  Alcotest.(check int) "the count holds the rewritten file" (file_size path)
    (Checkpoint_store.bytes rescanned);
  Alcotest.(check (option string)) "indexed damage rewritten" (Some chunk)
    (loaded ());
  truncate_file ~len:12 path;
  ignore (Checkpoint_store.put_chunk unindexed chunk : string);
  Alcotest.(check (option string)) "damage on disk rewritten" (Some chunk)
    (loaded ());
  Sys.remove path;
  ignore (Checkpoint_store.put_chunk rescanned chunk : string);
  Alcotest.(check (option string)) "deleted behind the index rewritten"
    (Some chunk) (loaded ())

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
          QCheck_alcotest.to_alcotest ~long:false qcheck_chunked_trace;
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
          Alcotest.test_case "missing parent directories are made" `Quick
            test_store_missing_parents_made;
          Alcotest.test_case "default fingerprint is the build's" `Quick
            test_default_fingerprint_is_the_build;
          Alcotest.test_case "eviction keeps bytes bounded" `Quick
            test_store_eviction_bounded;
          Alcotest.test_case "byte count tracks the directory" `Quick
            test_store_bytes_track_dir;
          Alcotest.test_case "mtime-tie eviction is path-deterministic" `Quick
            test_store_eviction_mtime_tiebreak;
          Alcotest.test_case "AVIS_STORE_MB guard" `Quick test_store_mb_guard;
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
          Alcotest.test_case "a fault after a stored end is served from it"
            `Slow test_store_fault_after_end_served;
          Alcotest.test_case "a warm cell is served from its runs' ends" `Slow
            test_warm_cell_served_from_ends;
          Alcotest.test_case "the later tier wins" `Slow
            test_store_later_tier_wins;
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
          Alcotest.test_case "the stored profile is the built one" `Slow
            test_stored_profile_is_built;
          Alcotest.test_case "the stored profile judges as built" `Slow
            test_stored_profile_judges_as_built;
        ] );
      ( "chunk files",
        [
          Alcotest.test_case "broken chunk falls back" `Slow
            test_store_broken_chunk_falls_back;
          Alcotest.test_case "broken chunks: cell identical" `Slow
            test_broken_chunks_cell_identical;
          Alcotest.test_case "evicted chunks: cell identical" `Slow
            test_evicted_chunks_cell_identical;
          Alcotest.test_case "a damaged chunk is put again" `Quick
            test_store_put_rewrites_damaged_chunk;
        ] );
    ]
