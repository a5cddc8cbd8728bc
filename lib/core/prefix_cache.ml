open Avis_sitl

(* A run's latest faulty capture that is not in memory: its simulator
   bytes wait in [pending_state]. *)
type pending = {
  key : string;
  time : float;
  trace : Trace.snapshot;
  stepper : string;
  transitions : int;  (** The run's transition count when taken. *)
}

type entry = {
  time : float;
  sim_snap : Sim.snapshot;
  stepper : string;  (** The stepper, encoded at the same moment. *)
  bytes : int;
      (** What the entry alone holds: its two strings and the trace tail
          its snapshot copied. *)
}

(* Full trace chunks by identity. Chunks at one index of different runs
   hold the same sample times, which is what [Hashtbl.hash] reads of a
   chunk, so they share a bucket; a bucket holds only the chunks this
   cache named. *)
module Chunks = Hashtbl.Make (struct
  type t = Trace.chunk

  let equal = ( == )
  let hash = Hashtbl.hash
end)

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
  pending_state : Buffer.t;
      (** The encoded simulator of the running scenario's pending
          capture, overwritten by its next one. *)
  entries : (string, entry list) Hashtbl.t;
      (** Active-fault-prefix key -> checkpoints, latest first. *)
  trace_chunks : (string, Trace.chunk) Hashtbl.t;
      (** Store chunk name -> the chunk, decoded once for every checkpoint
          this cache reads from the store that names it. A full chunk is
          never written again, so every trace restored from it shares it. *)
  chunk_names : (string * int) Chunks.t;
      (** A full chunk this cache put or loaded -> its store name and the
          length of its bytes. A full chunk never changes, so its name is
          its name for good. *)
  mutable hits : int;
  mutable misses : int;
  mutable saved_sim_s : float;
  mutable resident_bytes : int;
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

let create ?store ~workload ~config ~checkpoint_times () =
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
    pending_state = Buffer.create 8192;
    entries = Hashtbl.create 64;
    trace_chunks = Hashtbl.create 16;
    chunk_names = Chunks.create 16;
    hits = 0;
    misses = 0;
    saved_sim_s = 0.0;
    resident_bytes = 0;
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

(* The store name of a full trace chunk. The checkpoints of a run, and
   now its end, share all but their tail, so a chunk is encoded and hashed
   only the first time this cache puts it; after that, and after a load,
   its remembered name stands, unless its file is no longer held, when it
   is put again. Either way the checkpoint being written keeps the file:
   its mtime is refreshed, so eviction does not take it before that
   checkpoint. *)
let name_chunk (t : t) store chunk =
  match Chunks.find_opt t.chunk_names chunk with
  | Some (name, length) when Checkpoint_store.keep_chunk store name ~length ->
    name
  | Some _ | None ->
    let bytes = Trace.encode_chunk chunk in
    let name = Checkpoint_store.put_chunk store bytes in
    Chunks.replace t.chunk_names chunk (name, String.length bytes);
    name

(* A stored checkpoint is the entry's two strings and the trace's bytes,
   with each full trace chunk filed apart under its content's name: the
   checkpoints of a run, and of every run forked from it, share their
   past instead of repeating it. *)
let store_payload (t : t) store ~sim_snap ~stepper =
  Avis_util.Codec.to_string
    (fun b () ->
      Sim.encode_snapshot ~put_chunk:(name_chunk t store) b sim_snap;
      Avis_util.Codec.w_bytes b stepper)
    ()

let store_key (t : t) key = t.store_key ^ "\x00" ^ key

let note_store (t : t) store =
  Avis_util.Trace.counter "store.hits" (float_of_int t.store_hits);
  Avis_util.Trace.counter "store.misses" (float_of_int t.store_misses);
  Avis_util.Trace.counter "store.bytes"
    (float_of_int (Checkpoint_store.bytes store))

(* File a checkpoint under [key], latest first, and count its bytes. *)
let add_entry (t : t) ~key ~time ~sim_snap ~stepper =
  let bytes = Sim.snapshot_bytes sim_snap + String.length stepper in
  let entry = { time; sim_snap; stepper; bytes } in
  let rec insert = function
    | e :: rest when e.time > time -> e :: insert rest
    | rest -> entry :: rest
  in
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.entries key) in
  Hashtbl.replace t.entries key (insert existing);
  t.resident_bytes <- t.resident_bytes + bytes;
  Avis_util.Trace.counter "cache.resident_bytes"
    (float_of_int t.resident_bytes);
  entry

(* Write a checkpoint through to the persistent tier. The payload is lazy:
   when a previous process already stored this exact key and time, nothing
   is serialised at all. *)
let write_through (t : t) ~key (e : entry) =
  match t.store with
  | None -> ()
  | Some store ->
    Avis_util.Trace.span ~cat:"cache" "store.put" @@ fun () ->
    Checkpoint_store.put store ~key:(store_key t key) ~time:e.time
      ~payload:
        (lazy (store_payload t store ~sim_snap:e.sim_snap ~stepper:e.stepper));
    Avis_util.Trace.counter "store.writes"
      (float_of_int (Checkpoint_store.writes store))

(* File the run's pending capture in memory if the run changed mode since
   it was taken: a scenario stacked onto this one forks at one of its mode
   transitions, from its last capture before it. Its simulator bytes
   become a string only now. *)
let file_pending (t : t) pending ~transitions =
  match !pending with
  | Some p when p.transitions < transitions ->
    Avis_util.Trace.span ~cat:"cache" "cache.checkpoint" @@ fun () ->
    let sim_snap =
      Sim.snapshot_of_state t.config
        ~state:(Buffer.contents t.pending_state)
        p.trace
    in
    let e = add_entry t ~key:p.key ~time:p.time ~sim_snap ~stepper:p.stepper in
    Avis_util.Trace.counter "snapshot.bytes" (float_of_int e.bytes);
    pending := None
  | Some _ | None -> ()

(* A scenario's captures before its first fault land under the empty key:
   they are the clean checkpoints every later scenario forks from, so the
   clean prefix is simulated once, by whichever scenario first reaches each
   capture time. Clean captures are filed and written through as they are
   taken. A faulty capture only replaces [pending], after [file_pending]
   has kept the one it replaces if the run changed mode since.

   The run's end is its [final] capture, filed and written through
   whatever its key: a later scenario with the same faults, or with more
   that all lie after that end, stops at the same step, so it is served
   from there and takes no step. *)
let capture (t : t) ~scenario ~pending ~final sim st =
  let time = injection_clock sim in
  if time > 0.0 then begin
    let key = active_key scenario ~time in
    let transitions = Avis_hinj.Hinj.transition_count (Sim.hinj sim) in
    file_pending t pending ~transitions;
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt t.entries key)
    in
    (* Same key + same time means the frozen state is bit-identical to
       one already held; skip the snapshot entirely. A run that stopped
       without stepping after a pause ends in the state of that pause. *)
    match List.find_opt (fun e -> e.time = time) existing with
    | Some e ->
      pending := None;
      if final then write_through t ~key e
    | None ->
      Avis_util.Trace.span ~cat:"cache" "cache.checkpoint" @@ fun () ->
      let stepper = Avis_util.Codec.to_string Workload.Stepper.encode st in
      if key = "" || final then begin
        let e = add_entry t ~key ~time ~sim_snap:(Sim.snapshot sim) ~stepper in
        Avis_util.Trace.counter "snapshot.bytes" (float_of_int e.bytes);
        write_through t ~key e
      end
      else begin
        Sim.encode_state t.pending_state sim;
        pending :=
          Some
            { key; time; trace = Trace.snapshot (Sim.trace sim); stepper;
              transitions }
      end
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

(* The trace chunk a stored checkpoint names: decoded once per cache, from
   the store on first use, and named by it from then on. A chunk the store
   cannot serve makes the checkpoint that names it corrupt. *)
let trace_chunk (t : t) store name =
  match Hashtbl.find_opt t.trace_chunks name with
  | Some c -> c
  | None -> (
    let decode bytes = (Trace.decode_chunk bytes, String.length bytes) in
    match Checkpoint_store.load_chunk store name ~decode with
    | Some (c, length) ->
      Hashtbl.add t.trace_chunks name c;
      Chunks.replace t.chunk_names c (name, length);
      c
    | None -> Avis_util.Codec.corrupt "trace chunk missing or damaged")

(* Where a lookup's winner is held: in memory, or only in the store. *)
type held = Memory of entry | Stored of Checkpoint_store.t

(* The one lookup, over memory and the store: the latest checkpoint this
   scenario can fork from, forked. For each fault prefix, [find] takes the
   later of memory's latest entry in the window and the store's latest
   indexed checkpoint, and on a tie memory's, which reads no file. A
   stored winner's file is read, with the chunks it names that no earlier
   read decoded, and forked — which decodes it — before it is re-warmed
   into memory. A file that does not read or decode, or names a chunk
   that does not, has then left the store's index, so the scan runs
   again. With a store, a scenario that finds nothing is a store miss. *)
let lookup (t : t) ~scenario ~fork =
  Avis_util.Trace.span ~cat:"cache" "cache.lookup" @@ fun () ->
  let find ~key ~before =
    (* Entries are latest-first: the first in the window is the best. *)
    let memory =
      Option.bind (Hashtbl.find_opt t.entries key)
        (List.find_opt (fun (e : entry) -> e.time < before))
    in
    let stored =
      Option.bind t.store (fun store ->
          Option.map
            (fun time -> (time, Stored store))
            (Checkpoint_store.latest store ~key:(store_key t key) ~before))
    in
    match (memory, stored) with
    | Some e, Some (time, _) when time > e.time -> stored
    | Some e, _ -> Some (e.time, Memory e)
    | None, stored -> stored
  in
  let decode store =
    Avis_util.Codec.of_string (fun r ->
        let sim_snap =
          Sim.decode_snapshot ~get_chunk:(trace_chunk t store) ~config:t.config
            r
        in
        let stepper = Avis_util.Codec.r_bytes r in
        (sim_snap, stepper, fork ~sim_snap ~stepper))
  in
  let rec serve () =
    match best_prefix ~find scenario with
    | None -> None
    | Some (_, _, Memory e) ->
      Some (e, fork ~sim_snap:e.sim_snap ~stepper:e.stepper)
    | Some (key, time, Stored store) -> (
      match
        Avis_util.Trace.span ~cat:"cache" "store.lookup" (fun () ->
            Checkpoint_store.load store ~key:(store_key t key) ~time
              ~decode:(decode store))
      with
      | None -> serve ()
      | Some (sim_snap, stepper, forked) ->
        t.store_hits <- t.store_hits + 1;
        Some (add_entry t ~key ~time ~sim_snap ~stepper, forked))
  in
  let served = serve () in
  Option.iter
    (fun store ->
      if Option.is_none served then t.store_misses <- t.store_misses + 1;
      note_store t store)
    t.store;
  served

(* Run one scenario to completion, pausing at each remaining capture target
   so the run's own fault prefixes become checkpoints for later scenarios —
   this is what lets a search that stacks faults onto a safe scenario
   (SABRE's sites) fork from its base run instead of re-simulating it.
   Pausing and resuming is bit-identical to an uninterrupted run. The run's
   end is its final capture: a scenario served from an end has a finished
   stepper, so [go] returns at once and the outcome is read from the
   restored layers. *)
let execute (t : t) ~scenario =
  let plan = Scenario.to_plan scenario in
  let link_outages = Scenario.link_outages scenario in
  let fork ~sim_snap ~stepper =
    ( Sim.restore ~plan ~link_outages sim_snap,
      Avis_util.Codec.of_string (Workload.Stepper.decode t.workload) stepper )
  in
  let sim, st =
    match lookup t ~scenario ~fork with
    | Some (e, forked) ->
      t.hits <- t.hits + 1;
      Avis_util.Trace.counter "cache.hits" (float_of_int t.hits);
      t.saved_sim_s <- t.saved_sim_s +. e.time;
      forked
    | None ->
      t.misses <- t.misses + 1;
      Avis_util.Trace.counter "cache.misses" (float_of_int t.misses);
      (Sim.create ~plan ~link_outages t.config,
       Workload.Stepper.create t.workload)
  in
  let pending = ref None in
  let n = Array.length t.targets in
  let rec go i =
    if i >= n then
      match Workload.Stepper.run st sim ~until:infinity with
      | Workload.Stepper.Done passed -> passed
      | Workload.Stepper.Running -> false
    else begin
      (* Targets the run has reached are skipped without capturing: a
         forked run starts mid-flight, just under the target its
         checkpoint was taken at. *)
      let target = t.targets.(i) in
      if Workload.Stepper.reached sim ~until:target then go (i + 1)
      else
        match Workload.Stepper.run st sim ~until:target with
        | Workload.Stepper.Running ->
          capture t ~scenario ~pending ~final:false sim st;
          go (i + 1)
        | Workload.Stepper.Done passed -> passed
    end
  in
  let passed = go 0 in
  capture t ~scenario ~pending ~final:true sim st;
  Sim.outcome sim ~workload_passed:passed

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    saved_sim_s = t.saved_sim_s;
    evictions = 0;
    resident_bytes = t.resident_bytes;
    store_hits = t.store_hits;
    store_misses = t.store_misses;
    store_bytes = Option.fold ~none:0 ~some:Checkpoint_store.bytes t.store;
  }
