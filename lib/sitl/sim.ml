open Avis_firmware
open Avis_mavlink

type config = {
  policy : Policy.t;
  enabled_bugs : Bug.id list;
  seed : int;
  max_duration : float;
  environment : Avis_physics.Environment.t option;
}

let dt = 0.004

let default_config policy =
  {
    policy;
    enabled_bugs = Bug.unknown_bugs policy.Policy.firmware;
    seed = 0;
    max_duration = 120.0;
    environment = None;
  }

type t = {
  config : config;
  world : Avis_physics.World.t;
  suite : Avis_sensors.Suite.t;
  hinj : Avis_hinj.Hinj.t;
  vehicle : Vehicle.t;
  link : Link.t;
  gcs : Gcs.t;
  trace : Trace.t;
  mutable steps : int;
}

(* The local frame is anchored at a fixed home location (the PX4 SITL
   default near Zurich); all workloads use coordinates relative to it. *)
let home_geodetic = { Avis_geo.Geodesy.lat = 47.397742; lon = 8.545594; alt = 0.0 }
let home_frame = Avis_geo.Geodesy.frame_at home_geodetic

(* Seconds to the step whose send window covers that instant; the small
   epsilon keeps times that land exactly on a step boundary on that step. *)
let steps_of_time at = int_of_float (Float.ceil ((at /. dt) -. 1e-6))

(* What a run takes from its config and its fault schedule rather than
   from a codec, derived here for [create] and [restore] alike. The
   environment is a fresh copy: it carries mutable gust state, and two
   runs of one config must not couple through it. *)
type fixed = {
  environment : Avis_physics.Environment.t;
  fence : Avis_physics.Environment.fence option;
  bugs : Bug.registry;
  outages : Link.outage list;
}

let fixed (config : config) ~link_outages =
  let environment =
    match config.environment with
    | Some e -> Avis_physics.Environment.copy e
    | None -> Avis_physics.Environment.benign ()
  in
  {
    environment;
    fence = Avis_physics.Environment.fence environment;
    bugs = Bug.registry ~enabled:config.enabled_bugs;
    outages =
      List.map
        (fun (at, duration) ->
          {
            Link.from_step = steps_of_time at;
            until_step = steps_of_time (at +. duration);
          })
        link_outages;
  }

let create ?(plan = []) ?(link_outages = []) config =
  Avis_util.Trace.span ~cat:"sim" "sim.create" @@ fun () ->
  let f = fixed config ~link_outages in
  let rng = Avis_util.Rng.create config.seed in
  let env_rng = Avis_util.Rng.split rng in
  let suite_rng = Avis_util.Rng.split rng in
  let jitter_rng = Avis_util.Rng.split rng in
  let world =
    Avis_physics.World.create ~environment:f.environment ~rng:env_rng ()
  in
  let suite = Avis_sensors.Suite.create ~rng:suite_rng in
  let hinj = Avis_hinj.Hinj.create ~plan () in
  let link = Link.create ~jitter:jitter_rng ~outages:f.outages () in
  let vehicle =
    Vehicle.create ?fence:f.fence ~policy:config.policy ~bugs:f.bugs ~suite
      ~hinj ~link ~frame:home_frame ()
  in
  let trace = Trace.create () in
  { config; world; suite; hinj; vehicle; link; gcs = Gcs.create link; trace;
    steps = 0 }

type snapshot = {
  snap_config : config;
      (** Shared with the run, not encoded: every key a checkpoint is filed
          under pins it. *)
  state : string;
  snap_trace : Trace.snapshot;
}

(* Every layer but the trace writes into [b], each only its run state:
   neither the config, nor what [fixed] derives from it, nor the home
   frame is written. *)
let encode_state b t =
  Avis_util.Trace.span ~cat:"sim" "sim.snapshot" @@ fun () ->
  Buffer.clear b;
  Avis_physics.World.encode b t.world;
  Avis_sensors.Suite.encode b t.suite;
  Avis_hinj.Hinj.encode b t.hinj;
  Link.encode b t.link;
  Vehicle.encode b t.vehicle;
  Gcs.encode b t.gcs;
  Avis_util.Codec.w_int b t.steps

let snapshot_of_state config ~state snap_trace =
  { snap_config = config; state; snap_trace }

(* One encoding buffer per domain, cleared and reused by every snapshot,
   so a snapshot's only lasting allocation is its string. *)
let snapshot_buffer = Domain.DLS.new_key (fun () -> Buffer.create 8192)

let snapshot t =
  let b = Domain.DLS.get snapshot_buffer in
  encode_state b t;
  snapshot_of_state t.config ~state:(Buffer.contents b) (Trace.snapshot t.trace)

let snapshot_bytes s = String.length s.state + Trace.snapshot_bytes s.snap_trace

let restore ~plan ~link_outages s =
  (* A restore with a substituted plan or outage schedule is the fork
     operation, the span every prefix-cache hit hangs off. *)
  Avis_util.Trace.span ~cat:"sim" "sim.restore" @@ fun () ->
  let config = s.snap_config in
  let f = fixed config ~link_outages in
  let decode r =
    let open Avis_util.Codec in
    let world = Avis_physics.World.decode ~environment:f.environment r in
    let suite = Avis_sensors.Suite.decode r in
    let hinj = Avis_hinj.Hinj.decode ~plan r in
    let link = Link.decode ~outages:f.outages r in
    let vehicle =
      Vehicle.decode ?fence:f.fence ~policy:config.policy ~bugs:f.bugs ~suite
        ~hinj ~link ~frame:home_frame r
    in
    let gcs = Gcs.decode ~link r in
    let steps = r_int r in
    { config; world; suite; hinj; vehicle; link; gcs;
      trace = Trace.restore s.snap_trace; steps }
  in
  Avis_util.Codec.of_string decode s.state

let config t = t.config
let frame _ = home_frame
let gcs t = t.gcs
let link t = t.link
let world t = t.world
let vehicle t = t.vehicle
let hinj t = t.hinj
let trace t = t.trace
let time t = float_of_int t.steps *. dt
let steps t = t.steps

let finished t =
  Avis_physics.World.crashed t.world || time t >= t.config.max_duration

let step t =
  if not (finished t) then begin
    t.steps <- t.steps + 1;
    Link.step t.link;
    let motors = Vehicle.step t.vehicle t.world ~dt in
    let (_ : Avis_physics.World.contact_event option) =
      Avis_physics.World.step t.world ~motor_commands:motors ~dt
    in
    Avis_sensors.Suite.tick t.suite ~dt;
    (* Pass steps and dt rather than a freshly computed time: [record]
       rebuilds the identical float internally, and the call site stays
       free of a boxed-float argument. *)
    Trace.record t.trace ~steps:t.steps ~dt t.world
      ~mode:(Phase.label (Vehicle.phase t.vehicle));
    ignore (Gcs.tick t.gcs ~time:(time t))
  end

let run_until t pred =
  let rec loop () =
    if pred t then true
    else if finished t then pred t
    else begin
      step t;
      loop ()
    end
  in
  loop ()

type outcome = {
  trace : Trace.t;
  crash : Avis_physics.World.contact_event option;
  fence_breached : bool;
  workload_passed : bool;
  transitions : Avis_hinj.Hinj.transition list;
  triggered_bugs : Bug.id list;
  duration : float;
  sensor_reads : int;
}

let outcome (t : t) ~workload_passed =
  {
    trace = t.trace;
    crash = Avis_physics.World.crash_event t.world;
    fence_breached = Avis_physics.World.fence_breached t.world;
    workload_passed;
    transitions = Avis_hinj.Hinj.transitions t.hinj;
    triggered_bugs = Vehicle.triggered_bugs t.vehicle;
    duration = time t;
    sensor_reads = Avis_hinj.Hinj.read_count t.hinj;
  }

(* The config is destructured exhaustively (warning 9 is an error here in
   every build profile), so a field added to [config] does not compile
   until it is encoded below or bound to [_] with the reason it cannot
   change a run. These bytes key the checkpoint store and the run
   journal. *)
let encode_config b (c : config) =
  let[@warning "+9"] { policy; enabled_bugs; seed; max_duration; environment } =
    c
  in
  let open Avis_util.Codec in
  (* The personality by its firmware tag: every policy is
     [Policy.of_firmware] of its tag. *)
  w_u8 b (match policy.Policy.firmware with Bug.Ardupilot -> 0 | Bug.Px4 -> 1);
  w_list b Bug.encode_id enabled_bugs;
  w_int b seed;
  w_f64 b max_duration;
  w_option b Avis_physics.Environment.encode environment

let encode_snapshot ?put_chunk b s =
  Avis_util.Codec.w_bytes b s.state;
  Trace.encode_snapshot ?put_chunk b s.snap_trace

let decode_snapshot ?get_chunk ~config r =
  let state = Avis_util.Codec.r_bytes r in
  snapshot_of_state config ~state (Trace.decode_snapshot ?get_chunk r)

(* Every field is written (warning 9 is an error here), each through its
   layer's codec, so every float travels by its bits. *)
let encode_outcome b (o : outcome) =
  let[@warning "+9"] {
    trace;
    crash;
    fence_breached;
    workload_passed;
    transitions;
    triggered_bugs;
    duration;
    sensor_reads;
  } =
    o
  in
  let open Avis_util.Codec in
  Trace.encode_snapshot b (Trace.snapshot trace);
  w_option b Avis_physics.World.encode_contact crash;
  w_bool b fence_breached;
  w_bool b workload_passed;
  w_list b Avis_hinj.Hinj.encode_transition transitions;
  w_list b Bug.encode_id triggered_bugs;
  w_f64 b duration;
  w_int b sensor_reads

let decode_outcome r =
  let open Avis_util.Codec in
  let trace = Trace.restore (Trace.decode_snapshot r) in
  let crash = r_option r Avis_physics.World.decode_contact in
  let fence_breached = r_bool r in
  let workload_passed = r_bool r in
  let transitions = r_list r Avis_hinj.Hinj.decode_transition in
  let triggered_bugs = r_list r Bug.decode_id in
  let duration = r_f64 r in
  let sensor_reads = r_int r in
  { trace; crash; fence_breached; workload_passed; transitions;
    triggered_bugs; duration; sensor_reads }
