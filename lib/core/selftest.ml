open Avis_geo
open Avis_physics
open Avis_firmware

type report = {
  code : string;
  name : string;
  passed : bool;
  detail : string;
  elapsed_s : float;
}

type check = {
  code : string;
  name : string;
  run : unit -> (string, string) result;
}

(* ------------------------------------------------------------------ *)
(* Shared flight fixtures: a climb / asymmetric-cruise / descend       *)
(* profile flown in calm and windy air, and a grounded profile whose   *)
(* resting rates decay into the subnormal range, fingerprinted by the  *)
(* IEEE bits of the full rigid-body state.                             *)
(* ------------------------------------------------------------------ *)

let dt = 0.004
let hover = Airframe.hover_throttle Airframe.iris

let fingerprint w =
  let b = World.body w in
  let p = Rigid_body.position_v b
  and v = Rigid_body.velocity_v b
  and q = Rigid_body.attitude_q b
  and o = Rigid_body.angular_velocity_v b in
  List.map Int64.bits_of_float
    [ p.Vec3.x; p.y; p.z; v.x; v.y; v.z; q.Quat.w; q.Quat.x; q.Quat.y;
      q.Quat.z; o.Vec3.x; o.y; o.z; World.time w ]

let profile i =
  if i < 200 then Array.make 4 (hover *. 1.2)
  else if i < 1200 then [| hover *. 1.02; hover *. 0.98; hover; hover |]
  else Array.make 4 (hover *. 0.9)

(* A short asymmetric climb, a touchdown at about 1 m/s (under the
   2.5 m/s crash sink speed: a crash would freeze the world), then 25,500
   steps with the motors off, so the steppers must flush the resting
   rates' subnormals alike. *)
let grounded_profile i =
  if i < 150 then [| hover *. 1.21; hover *. 1.19; hover *. 1.2; hover *. 1.2 |]
  else if i < 1500 then Array.make 4 (hover *. 0.9)
  else Array.make 4 0.0

type flight = { label : string; windy : bool; fly : int -> float array; steps : int }

let flights =
  [ { label = "calm"; windy = false; fly = profile; steps = 3000 };
    { label = "windy"; windy = true; fly = profile; steps = 3000 };
    { label = "grounded"; windy = false; fly = grounded_profile; steps = 27_000 } ]

let labels fs = String.concat ", " (List.map (fun f -> f.label) fs)

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
  World.create ~environment ~rng:(Avis_util.Rng.create 7)
    ~position:(Vec3.make 0.0 0.0 0.0) ()

let flight stepf f =
  let w = flight_world ~windy:f.windy in
  for i = 0 to f.steps - 1 do
    ignore (stepf w ~motor_commands:(f.fly i) ~dt)
  done;
  fingerprint w

(* ------------------------------------------------------------------ *)
(* Temp-dir plumbing for STORE-RW.                                     *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d =
      Filename.concat base
        (Printf.sprintf "avis-selftest-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with _ -> ())
  | false -> ( try Sys.remove path with _ -> ())
  | exception _ -> ()

(* ------------------------------------------------------------------ *)
(* The checks.                                                         *)
(* ------------------------------------------------------------------ *)

let det_fp ?(optimized = World.step) () =
  {
    code = "DET-FP";
    name = "optimised step vs reference: state fingerprints bit-equal";
    run =
      (fun () ->
        let diverged =
          List.filter
            (fun f -> flight optimized f <> flight World.step_reference f)
            flights
        in
        match diverged with
        | [] ->
          Ok
            (Printf.sprintf
               "%s flights (%s steps), 14-float fingerprints bit-equal"
               (labels flights)
               (String.concat "/"
                  (List.map (fun f -> string_of_int f.steps) flights)))
        | l ->
          Error
            (Printf.sprintf
               "optimised kernel diverges from step_reference flying %s"
               (labels l)));
  }

let sim_fingerprint sim =
  (Int64.bits_of_float (Avis_sitl.Sim.time sim), fingerprint (Avis_sitl.Sim.world sim))

let snap_rt () =
  {
    code = "SNAP-RT";
    name = "simulator snapshot -> bytes -> restore round-trip";
    run =
      (fun () ->
        let cfg =
          { (Avis_sitl.Sim.default_config Policy.apm) with
            Avis_sitl.Sim.seed = 42; max_duration = 30.0 }
        in
        let sim = Avis_sitl.Sim.create cfg in
        ignore (Avis_sitl.Sim.run_until sim (fun s -> Avis_sitl.Sim.time s >= 5.0));
        let encode sim =
          Avis_util.Codec.to_string Avis_sitl.Sim.encode_snapshot
            (Avis_sitl.Sim.snapshot sim)
        in
        let bytes = encode sim in
        match
          Avis_sitl.Sim.restore ~plan:[] ~link_outages:[]
            (Avis_util.Codec.of_string
               (Avis_sitl.Sim.decode_snapshot ~config:cfg)
               bytes)
        with
        | exception Avis_util.Codec.Corrupt msg ->
          Error ("snapshot bytes failed to decode: " ^ msg)
        | restored ->
          if encode restored <> bytes then
            Error "re-encoding a restored run changed its bytes"
          else begin
            for _ = 1 to 250 do
              Avis_sitl.Sim.step sim;
              Avis_sitl.Sim.step restored
            done;
            if sim_fingerprint sim <> sim_fingerprint restored then
              Error "a run restored from snapshot bytes diverged from the original"
            else
              Ok
                (Printf.sprintf
                   "%d-byte snapshot: byte-stable re-encode, restored run \
                    bit-equal to the original after 250 steps"
                   (String.length bytes))
          end);
  }

let store_rw ?dir () =
  {
    code = "STORE-RW";
    name = "checkpoint store: write/read, corrupt-detect, fingerprints";
    run =
      (fun () ->
        let d, cleanup =
          match dir with Some d -> (d, false) | None -> (temp_dir (), true)
        in
        Fun.protect ~finally:(fun () -> if cleanup then rm_rf d)
        @@ fun () ->
        let store =
          Checkpoint_store.create ~fingerprint:"selftest-fp" ~store_mb:8
            ~dir:d ()
        in
        let payload =
          String.init 4096 (fun i -> Char.chr (((i * 131) + 7) land 0xff))
        in
        Checkpoint_store.put store ~key:"fk" ~time:1.5
          ~payload:(lazy payload);
        match Checkpoint_store.lookup store ~key:"fk" ~before:2.0 with
        | None ->
          Error
            (Printf.sprintf
               "write/read round-trip failed under %s: stored checkpoint \
                not served"
               d)
        | Some (t, p) when t <> 1.5 || p <> payload ->
          Error "round-trip served different time or bytes"
        | Some _ -> (
          let other =
            Checkpoint_store.create ~fingerprint:"other-fp" ~store_mb:8
              ~dir:d ()
          in
          match Checkpoint_store.lookup other ~key:"fk" ~before:2.0 with
          | Some _ -> Error "a checkpoint keyed by another binary was served"
          | None -> (
            let files =
              try
                Sys.readdir d |> Array.to_list
                |> List.filter (fun n -> Filename.check_suffix n ".ckpt")
              with _ -> []
            in
            match files with
            | [ name ] -> (
              let path = Filename.concat d name in
              let ic = open_in_bin path in
              let data = really_input_string ic (in_channel_length ic) in
              close_in ic;
              let b = Bytes.of_string data in
              let last = Bytes.length b - 1 in
              Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
              let oc = open_out_bin path in
              output_bytes oc b;
              close_out oc;
              match
                Checkpoint_store.lookup store ~key:"fk" ~before:2.0
              with
              | Some _ -> Error "a corrupted checkpoint file was served"
              | None ->
                Ok
                  "round-trip, foreign-fingerprint isolation and \
                   corrupt-file detection all OK")
            | l ->
              Error
                (Printf.sprintf "expected exactly one checkpoint file, found %d"
                   (List.length l)))));
  }

(* A tiny fixed campaign, the shared fixture of CACHE-ID and soak mode:
   small enough to finish in a couple of seconds, large enough to schedule
   real injections and (with the default seed) record findings. *)
let mini_campaign ?(seed = 1) ~cached () =
  let config =
    {
      (Campaign.default_config Policy.apm Workload.quickstart) with
      Campaign.budget_s = 120.0;
      prefix_cache = cached;
      seed;
    }
  in
  Campaign.run config ~strategy:(fun ctx -> Sabre.make ctx)

let campaign_fingerprint (r : Campaign.result) =
  Printf.sprintf "sims=%d infs=%d spent_bits=%Lx findings=[%s]"
    r.Campaign.simulations r.Campaign.inferences
    (Int64.bits_of_float r.Campaign.wall_clock_spent_s)
    (String.concat ";"
       (List.map
          (fun (f : Campaign.finding) ->
            Printf.sprintf "%d@%s" f.Campaign.simulation_index
              (Digest.to_hex (Digest.string (Report.describe f.Campaign.report))))
          r.Campaign.findings))

let cache_id () =
  {
    code = "CACHE-ID";
    name = "mini campaign: prefix cache on vs off, identical outcomes";
    run =
      (fun () ->
        let cold = mini_campaign ~cached:false () in
        let cached = mini_campaign ~cached:true () in
        let a = campaign_fingerprint cold and b = campaign_fingerprint cached in
        if a <> b then
          Error (Printf.sprintf "cached campaign diverged: cold %s, cached %s" a b)
        else
          Ok
            (Printf.sprintf
               "%d simulations, %d findings: counts, ledger bits and finding \
                indices identical"
               cold.Campaign.simulations
               (Campaign.unsafe_count cold)));
  }

let pool_sane () =
  {
    code = "POOL-SANE";
    name = "domain pool: ordered map, exception propagation";
    run =
      (fun () ->
        let open Avis_util in
        let items = List.init 16 Fun.id in
        let squares = Pool.map ~jobs:2 (fun i -> i * i) items in
        if squares <> List.map (fun i -> i * i) items then
          Error "Pool.map returned results out of input order"
        else
          match
            Pool.map ~jobs:2
              (fun i ->
                if i = 3 || i = 6 then failwith (Printf.sprintf "boom-%d" i)
                else i)
              (List.init 8 Fun.id)
          with
          | _ -> Error "a job's exception did not propagate out of Pool.map"
          | exception Failure msg when msg = "boom-3" ->
            Ok "map order and first-failure propagation OK"
          | exception e ->
            Error
              ("Pool.map raised other than the first failure in input \
                order: " ^ Printexc.to_string e));
  }

let alloc_0 () =
  {
    code = "ALLOC-0";
    name = "step/sense/record hot loop allocates no minor words";
    run =
      (fun () ->
        let w = World.create ~position:(Vec3.make 0.0 0.0 100.0) () in
        let suite = Avis_sensors.Suite.create ~rng:(Avis_util.Rng.create 1) in
        let trace = Avis_sitl.Trace.create () in
        let cmds = Array.make 4 hover in
        let steps = ref 0 in
        let kernel () =
          ignore (World.step w ~motor_commands:cmds ~dt);
          Avis_sensors.Suite.tick suite ~dt;
          incr steps;
          Avis_sitl.Trace.record trace ~steps:!steps ~dt w ~mode:"Manual"
        in
        for _ = 1 to 2000 do kernel () done;
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do kernel () done;
        let allocated = Gc.minor_words () -. w0 in
        (* [Gc.minor_words] itself boxes its result, hence the slack —
           the same 64-word bound the physics regression test uses. *)
        if allocated < 64.0 then
          Ok (Printf.sprintf "%.0f minor words over 1000 steps" allocated)
        else
          Error
            (Printf.sprintf
               "hot loop allocated %.0f minor words over 1000 steps"
               allocated));
  }

let checks () =
  [
    det_fp (); snap_rt (); store_rw (); cache_id (); pool_sane ();
    alloc_0 ();
  ]

let run_check c =
  let t0 = Avis_util.Metrics.now_s () in
  let passed, detail =
    match c.run () with
    | Ok d -> (true, d)
    | Error d -> (false, d)
    | exception e -> (false, "raised " ^ Printexc.to_string e)
  in
  {
    code = c.code;
    name = c.name;
    passed;
    detail;
    elapsed_s = Avis_util.Metrics.now_s () -. t0;
  }

let run_all ?checks:(cs = checks ()) () = List.map run_check cs

let all_passed = List.for_all (fun r -> r.passed)

let table reports =
  let t =
    Avis_util.Table.create ~header:[ "code"; "verdict"; "time (s)"; "detail" ]
  in
  List.iter
    (fun (r : report) ->
      Avis_util.Table.add_row t
        [
          r.code;
          (if r.passed then "ok" else "FAIL");
          Printf.sprintf "%.1f" r.elapsed_s;
          r.detail;
        ])
    reports;
  t

(* ------------------------------------------------------------------ *)
(* Soak mode.                                                          *)
(* ------------------------------------------------------------------ *)

type soak = { iterations : int; drift : string list }

let soak_seeds = [ 1; 2; 3 ]

let soak ?iterations ?(progress = fun (_ : int) -> ()) ~minutes () =
  let t0 = Avis_util.Metrics.now_s () in
  let seen : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let drift = ref [] in
  let keep_going i =
    match iterations with
    | Some n -> i < n
    | None ->
      (* At least one full seed rotation plus one repeat, so every seed
         gets at least one drift comparison even with [minutes = 0]. *)
      i < List.length soak_seeds + 1
      || Avis_util.Metrics.now_s () -. t0 < minutes *. 60.0
  in
  let i = ref 0 in
  while keep_going !i do
    let seed = List.nth soak_seeds (!i mod List.length soak_seeds) in
    let fp = campaign_fingerprint (mini_campaign ~seed ~cached:true ()) in
    (match Hashtbl.find_opt seen seed with
    | None -> Hashtbl.replace seen seed fp
    | Some prior when prior = fp -> ()
    | Some prior ->
      drift :=
        Printf.sprintf
          "iteration %d (seed %d) drifted: first saw %s, now %s" (!i + 1)
          seed prior fp
        :: !drift);
    incr i;
    progress !i
  done;
  { iterations = !i; drift = List.rev !drift }
