open Avis_sitl

type entry = {
  time : float;
  sim_snap : Sim.snapshot;
  stepper : string;  (** The stepper, encoded at the same moment. *)
  bytes : int;
      (** What the entry alone holds: its two strings and the trace tail
          its snapshot copied. *)
  mutable last_used : int;  (** Logical clock tick of last capture or hit. *)
}

type t = {
  workload : Workload.t;
  config : Sim.config;
  store : Checkpoint_store.t option;
      (** Persistent overflow/sharing tier: same keys as [entries], files on
          disk, shared with other processes. [None] when the campaign has no
          store. *)
  store_key : string;
      (** The configuration half of every store key: the canonical config
          bytes plus the workload name — two campaigns whose runs could
          ever diverge must never share a key. *)
  targets : float array;  (** Capture times, ascending. *)
  entries : (string, entry list) Hashtbl.t;
      (** Active-fault-prefix key -> checkpoints, latest first. *)
  mutable hits : int;
  mutable misses : int;
  mutable saved_sim_s : float;
  budget_bytes : int;  (** Resident-set ceiling; never exceeded. *)
  mutable resident_bytes : int;
  mutable use_tick : int;  (** Logical clock for LRU ordering. *)
  mutable evictions : int;
  mutable store_hits : int;
  mutable store_misses : int;
}

type stats = {
  hits : int;
  misses : int;
  saved_sim_s : float;
  evictions : int;
  resident_bytes : int;
  store_hits : int;
  store_misses : int;
  store_bytes : int;
}

let create ?cache_mb ?store ~workload ~config ~checkpoint_times () =
  let ts =
    List.sort_uniq compare (List.filter (fun t -> t > 0.0) checkpoint_times)
  in
  {
    workload;
    config;
    store;
    store_key =
      Avis_util.Codec.to_string Sim.encode_config config
      ^ "\x00" ^ workload.Workload.name;
    targets = Array.of_list ts;
    entries = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    saved_sim_s = 0.0;
    (* A typo'd budget must not silently turn the cache stateless: a zero
       budget would make every capture evict itself. *)
    budget_bytes =
      Avis_util.Env.budget_bytes ?mb:cache_mb ~arg:"cache_mb"
        ~var:"AVIS_CACHE_MB" ~default_mb:1024 ();
    resident_bytes = 0;
    use_tick = 0;
    evictions = 0;
    store_hits = 0;
    store_misses = 0;
  }

(* Fault activation ([Hinj.is_failed]) is judged against the firmware's own
   accumulated clock ([Vehicle.time]), not the step-derived [Sim.time]; the
   two drift apart by float rounding. Checkpoint validity must use the same
   clock the injector sees, or a fault landing exactly on a profiled
   transition time could already be active at the "clean" checkpoint step. *)
let injection_clock sim = Avis_firmware.Vehicle.time (Sim.vehicle sim)

(* Checkpoints are keyed by the exact set of faults active when they were
   taken. Times are encoded by their bit pattern, so two runs share a key
   only when their fault histories agree float-for-float — which, with a
   fixed test seed, makes their states bit-identical up to the checkpoint.
   A link outage stays in the key even after its window closes: the dropped
   traffic leaves the run's state permanently different from a run that
   never lost the link. The clean prefix is the special case of the empty
   key. *)
let encode_fault (f : Scenario.fault) =
  match f with
  | Scenario.Sensor_fault sf ->
    Printf.sprintf "%s@%Lx"
      (Avis_sensors.Sensor.id_to_string sf.Scenario.sensor)
      (Int64.bits_of_float sf.Scenario.at)
  | Scenario.Link_loss { at; duration } ->
    Printf.sprintf "link@%Lx+%Lx" (Int64.bits_of_float at)
      (Int64.bits_of_float duration)

let encode_faults faults =
  String.concat ";" (List.sort compare (List.map encode_fault faults))

let active_key (scenario : Scenario.t) ~time =
  encode_faults
    (List.filter (fun f -> Scenario.fault_time f <= time) scenario)

let note_resident (t : t) =
  Avis_util.Trace.counter "cache.resident_bytes"
    (float_of_int t.resident_bytes)

(* A stored checkpoint is the entry's two strings and the trace's bytes:
   nothing is encoded a second time. *)
let store_payload ~sim_snap ~stepper =
  Avis_util.Codec.to_string
    (fun b () ->
      Sim.encode_snapshot b sim_snap;
      Avis_util.Codec.w_bytes b stepper)
    ()

let note_store (t : t) store =
  Avis_util.Trace.counter "store.hits" (float_of_int t.store_hits);
  Avis_util.Trace.counter "store.misses" (float_of_int t.store_misses);
  Avis_util.Trace.counter "store.bytes"
    (float_of_int (Checkpoint_store.bytes store))

(* Drop the globally least-recently-used checkpoint (capture and hit both
   count as uses). Linear in the entry count, which the byte budget keeps
   small relative to snapshot cost. *)
let evict_lru (t : t) =
  let victim = ref None in
  Hashtbl.iter
    (fun key es ->
      List.iter
        (fun e ->
          match !victim with
          | Some (_, v) when v.last_used <= e.last_used -> ()
          | _ -> victim := Some (key, e))
        es)
    t.entries;
  match !victim with
  | None -> false
  | Some (key, v) ->
    let es = Option.value ~default:[] (Hashtbl.find_opt t.entries key) in
    (match List.filter (fun e -> e != v) es with
    | [] -> Hashtbl.remove t.entries key
    | remaining -> Hashtbl.replace t.entries key remaining);
    t.resident_bytes <- t.resident_bytes - v.bytes;
    t.evictions <- t.evictions + 1;
    Avis_util.Trace.counter "cache.evictions" (float_of_int t.evictions);
    true

let enforce_budget (t : t) =
  while t.resident_bytes > t.budget_bytes && evict_lru t do () done;
  note_resident t

(* File a checkpoint under [key], latest first, and charge it to the byte
   budget. A lone checkpoint larger than the whole budget evicts itself, so
   the resident set never exceeds the budget even transiently past this
   point. *)
let add_entry (t : t) ~key ~time ~sim_snap ~stepper =
  let bytes = Sim.snapshot_bytes sim_snap + String.length stepper in
  t.use_tick <- t.use_tick + 1;
  let entry = { time; sim_snap; stepper; bytes; last_used = t.use_tick } in
  let rec insert = function
    | e :: rest when e.time > time -> e :: insert rest
    | rest -> entry :: rest
  in
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.entries key) in
  Hashtbl.replace t.entries key (insert existing);
  t.resident_bytes <- t.resident_bytes + bytes;
  enforce_budget t;
  entry

(* Write a checkpoint through to the persistent tier. The payload is lazy:
   when a previous process already stored this exact key and time, nothing
   is serialised at all. *)
let write_through (t : t) ~key (e : entry) =
  match t.store with
  | None -> ()
  | Some store ->
    Avis_util.Trace.span ~cat:"cache" "store.put" @@ fun () ->
    Checkpoint_store.put store ~key:(t.store_key ^ "\x00" ^ key) ~time:e.time
      ~payload:(lazy (store_payload ~sim_snap:e.sim_snap ~stepper:e.stepper));
    Avis_util.Trace.counter "store.writes"
      (float_of_int (Checkpoint_store.writes store))

(* A scenario's captures before its first fault land under the empty key:
   they are the clean checkpoints every later scenario forks from, so the
   clean prefix is simulated once, by whichever scenario first reaches each
   capture time. Clean captures are written through as they are taken. A
   faulty capture goes to the store only if it is its run's last: it
   replaces [final], which [execute] commits when the run ends. *)
let capture (t : t) ~scenario ~final sim st =
  Avis_util.Trace.span ~cat:"cache" "cache.checkpoint" @@ fun () ->
  let time = injection_clock sim in
  if time > 0.0 then begin
    let key = active_key scenario ~time in
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt t.entries key)
    in
    let entry =
      (* Same key + same time means the frozen state is bit-identical to
         one already held; skip the snapshot entirely. *)
      match List.find_opt (fun e -> e.time = time) existing with
      | Some e -> e
      | None ->
        let sim_snap = Sim.snapshot sim in
        let stepper = Avis_util.Codec.to_string Workload.Stepper.encode st in
        let e = add_entry t ~key ~time ~sim_snap ~stepper in
        Avis_util.Trace.counter "snapshot.bytes" (float_of_int e.bytes);
        if key = "" then write_through t ~key e;
        e
    in
    if key <> "" then final := Some (key, entry)
  end

let compare_for_prefix a b =
  match compare (Scenario.fault_time a) (Scenario.fault_time b) with
  | 0 -> compare (encode_fault a) (encode_fault b)
  | c -> c

(* Find the latest checkpoint this scenario can fork from, as [find ~key
   ~before] sees them: the latest checkpoint under [key] taken strictly
   before [before], with its time. With the faults sorted by activation
   time, each prefix of j faults is a candidate key; a checkpoint under it
   is sound iff it was taken strictly before the (j+1)-th fault activates
   ([Hinj.is_failed] activates at [at <= time], and an outage opens at the
   first step of its window, so equality would already differ). Entries
   under a key necessarily postdate every fault in it, so the window below
   is the only check needed. *)
let best_prefix ~find scenario =
  let faults = Array.of_list (List.sort compare_for_prefix scenario) in
  let k = Array.length faults in
  let best = ref None in
  for j = 0 to k do
    let before = if j = k then infinity else Scenario.fault_time faults.(j) in
    let key = encode_faults (Array.to_list (Array.sub faults 0 j)) in
    match find ~key ~before with
    | None -> ()
    | Some (time, found) -> (
      match !best with
      | Some (_, best_time, _) when best_time >= time -> ()
      | _ -> best := Some (key, time, found))
  done;
  !best

let lookup (t : t) ~scenario =
  Avis_util.Trace.span ~cat:"cache" "cache.lookup" @@ fun () ->
  let find ~key ~before =
    match Hashtbl.find_opt t.entries key with
    | None -> None
    | Some es ->
      (* [es] is latest-first: the first in-window entry is the best one. *)
      List.find_opt (fun e -> e.time < before) es
      |> Option.map (fun e -> (e.time, e))
  in
  Option.map (fun (_, _, e) -> e) (best_prefix ~find scenario)

(* The persistent fallback to [lookup]: the same prefix-key scan, against
   files written by this or any earlier process. A served checkpoint is
   forked — which decodes it — before it is re-warmed into memory, so a
   payload that does not decode is a counted miss and never filed; the
   disk is touched once per prefix, not once per scenario. *)
let store_lookup (t : t) store ~scenario ~fork =
  let served =
    Avis_util.Trace.span ~cat:"cache" "store.lookup" @@ fun () ->
    let find ~key ~before =
      Checkpoint_store.lookup store ~key:(t.store_key ^ "\x00" ^ key) ~before
    in
    match best_prefix ~find scenario with
    | None -> None
    | Some (key, time, payload) -> (
      let decode r =
        let sim_snap = Sim.decode_snapshot ~config:t.config r in
        let stepper = Avis_util.Codec.r_bytes r in
        (sim_snap, stepper, fork ~sim_snap ~stepper)
      in
      match Avis_util.Codec.of_string decode payload with
      | exception Avis_util.Codec.Corrupt _ ->
        (* The frame checksum held but the payload didn't decode (e.g. a
           foreign format revision): treat as a miss; the fingerprint in
           the key makes this all but impossible for files we wrote. *)
        None
      | sim_snap, stepper, forked ->
        Some (add_entry t ~key ~time ~sim_snap ~stepper, forked))
  in
  (match served with
  | Some _ -> t.store_hits <- t.store_hits + 1
  | None -> t.store_misses <- t.store_misses + 1);
  note_store t store;
  served

(* Run one scenario to completion, pausing at each remaining capture target
   so the run's own fault prefixes become checkpoints for later scenarios —
   this is what lets a search that stacks faults onto a safe scenario
   (SABRE's sites) fork from its base run instead of re-simulating it.
   Pausing and resuming is bit-identical to an uninterrupted run. The run's
   last faulty capture is written through once it ends: encoding it then
   is bit-exact, because its trace snapshot shares only chunks the run
   writes past. *)
let execute (t : t) ~scenario =
  let plan = Scenario.to_plan scenario in
  let link_outages = Scenario.link_outages scenario in
  let fork ~sim_snap ~stepper =
    ( Sim.restore ~plan ~link_outages sim_snap,
      Avis_util.Codec.of_string (Workload.Stepper.decode t.workload) stepper )
  in
  let serve e forked =
    t.hits <- t.hits + 1;
    Avis_util.Trace.counter "cache.hits" (float_of_int t.hits);
    t.use_tick <- t.use_tick + 1;
    e.last_used <- t.use_tick;
    t.saved_sim_s <- t.saved_sim_s +. e.time;
    forked
  in
  let sim, st =
    match lookup t ~scenario with
    | Some e -> serve e (fork ~sim_snap:e.sim_snap ~stepper:e.stepper)
    | None -> (
      match Option.bind t.store (fun s -> store_lookup t s ~scenario ~fork) with
      | Some (e, forked) -> serve e forked
      | None ->
        t.misses <- t.misses + 1;
        Avis_util.Trace.counter "cache.misses" (float_of_int t.misses);
        (Sim.create ~plan ~link_outages t.config,
         Workload.Stepper.create t.workload))
  in
  let final = ref None in
  let n = Array.length t.targets in
  let rec go i =
    if i >= n then
      match Workload.Stepper.run st sim ~until:infinity with
      | Workload.Stepper.Done passed -> passed
      | Workload.Stepper.Running -> false
    else begin
      (* Targets already behind the clock (a forked run starts mid-flight)
         are skipped without capturing. *)
      let target = t.targets.(i) in
      if target <= Sim.time sim then go (i + 1)
      else
        match Workload.Stepper.run st sim ~until:target with
        | Workload.Stepper.Running ->
          capture t ~scenario ~final sim st;
          go (i + 1)
        | Workload.Stepper.Done passed -> passed
    end
  in
  let passed = go 0 in
  Option.iter (fun (key, e) -> write_through t ~key e) !final;
  Sim.outcome sim ~workload_passed:passed

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    saved_sim_s = t.saved_sim_s;
    evictions = t.evictions;
    resident_bytes = t.resident_bytes;
    store_hits = t.store_hits;
    store_misses = t.store_misses;
    store_bytes = Option.fold ~none:0 ~some:Checkpoint_store.bytes t.store;
  }
