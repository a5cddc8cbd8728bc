open Avis_geo

type sample = {
  time : float;
  position : Vec3.t;
  acceleration : Vec3.t;
  mode : string;
}

(* Samples live in fixed-size columnar chunks: float columns for the numeric
   state and a string column for the mode label. Recording a sample is a
   handful of unboxed stores into the current chunk — no list cons, no
   re-materialisation — and a full chunk is never written again, so
   snapshots share every chunk except the partial tail. *)

let chunk_bits = 8
let chunk_cap = 1 lsl chunk_bits (* 256 samples = 25.6 s at 10 Hz *)
let chunk_mask = chunk_cap - 1

type chunk = {
  c_time : float array;
  c_px : float array;
  c_py : float array;
  c_pz : float array;
  c_ax : float array;
  c_ay : float array;
  c_az : float array;
  c_mode : string array;
}

let fresh_chunk () =
  {
    c_time = Array.make chunk_cap 0.0;
    c_px = Array.make chunk_cap 0.0;
    c_py = Array.make chunk_cap 0.0;
    c_pz = Array.make chunk_cap 0.0;
    c_ax = Array.make chunk_cap 0.0;
    c_ay = Array.make chunk_cap 0.0;
    c_az = Array.make chunk_cap 0.0;
    c_mode = Array.make chunk_cap "";
  }

(* A fresh chunk holding the first [n] samples of [c]. *)
let prefix_chunk c n =
  let f = fresh_chunk () in
  let blit src dst = Array.blit src 0 dst 0 n in
  blit c.c_time f.c_time;
  blit c.c_px f.c_px;
  blit c.c_py f.c_py;
  blit c.c_pz f.c_pz;
  blit c.c_ax f.c_ax;
  blit c.c_ay f.c_ay;
  blit c.c_az f.c_az;
  blit c.c_mode f.c_mode;
  f

type t = {
  period : float;
  mutable chunks : chunk array; (* exactly the chunks created so far *)
  mutable len : int; (* total recorded samples *)
  sched : float array; (* single cell: next sample due time (unboxed) *)
}

let create ?(period = 0.1) () =
  { period; chunks = [||]; len = 0; sched = [| 0.0 |] }

let period t = t.period

type snapshot = t

(* A snapshot shares every chunk with the live trace, the partial tail
   too: it reads only its first [len] samples, and the live run only
   writes past them (each slot is written once, at increasing indices). *)
let snapshot t =
  { period = t.period; chunks = Array.copy t.chunks; len = t.len;
    sched = Array.copy t.sched }

(* A restored trace records on, so it detaches the partial tail: the
   filled prefix moves into a fresh chunk, and the run it came from (or a
   sibling restore) can write its own samples past [len] undisturbed. *)
let restore s =
  let chunks = Array.copy s.chunks in
  let fill = s.len land chunk_mask in
  if fill <> 0 then begin
    let tail = s.len lsr chunk_bits in
    chunks.(tail) <- prefix_chunk chunks.(tail) fill
  end;
  { period = s.period; chunks; len = s.len; sched = Array.copy s.sched }

let word = Sys.word_size / 8

(* What a snapshot alone holds: its record, schedule cell and chunk-pointer
   array. Every chunk, the partial tail included, is shared with the run. *)
let snapshot_bytes s = word * (5 + 2 + 1 + Array.length s.chunks)

(* Appending a chunk copies the (tiny) chunk-pointer array; it happens once
   per [chunk_cap] samples. *)
let add_chunk t =
  let c = fresh_chunk () in
  t.chunks <- Array.append t.chunks [| c |];
  c

let record t ~steps ~dt world ~mode =
  let time = float_of_int steps *. dt in
  if time >= t.sched.(0) then begin
    t.sched.(0) <- t.sched.(0) +. t.period;
    if t.sched.(0) <= time then t.sched.(0) <- time +. t.period;
    let body = Avis_physics.World.body world in
    let i = t.len in
    let ci = i lsr chunk_bits and off = i land chunk_mask in
    let c = if ci < Array.length t.chunks then t.chunks.(ci) else add_chunk t in
    c.c_time.(off) <- time;
    let p = body.Avis_physics.Rigid_body.position in
    c.c_px.(off) <- p.Vec3.Mut.x;
    c.c_py.(off) <- p.Vec3.Mut.y;
    c.c_pz.(off) <- p.Vec3.Mut.z;
    let a = body.Avis_physics.Rigid_body.acceleration in
    c.c_ax.(off) <- a.Vec3.Mut.x;
    c.c_ay.(off) <- a.Vec3.Mut.y;
    c.c_az.(off) <- a.Vec3.Mut.z;
    c.c_mode.(off) <- mode;
    t.len <- i + 1
  end

let[@inline] length t = t.len

(* Column reads for index [i]: a checked chunk load and a slot load,
   inlined at the call site so a float read stays unboxed. The slot
   offset is below [chunk_cap] by construction, so only the chunk index
   needs a bounds check. *)
let[@inline] chunk t i = t.chunks.(i lsr chunk_bits)
let[@inline] time t i = Array.unsafe_get (chunk t i).c_time (i land chunk_mask)
let[@inline] px t i = Array.unsafe_get (chunk t i).c_px (i land chunk_mask)
let[@inline] py t i = Array.unsafe_get (chunk t i).c_py (i land chunk_mask)
let[@inline] pz t i = Array.unsafe_get (chunk t i).c_pz (i land chunk_mask)
let[@inline] ax t i = Array.unsafe_get (chunk t i).c_ax (i land chunk_mask)
let[@inline] ay t i = Array.unsafe_get (chunk t i).c_ay (i land chunk_mask)
let[@inline] az t i = Array.unsafe_get (chunk t i).c_az (i land chunk_mask)
let[@inline] mode t i = Array.unsafe_get (chunk t i).c_mode (i land chunk_mask)

let sample_at t i =
  {
    time = time t i;
    position = Vec3.make (px t i) (py t i) (pz t i);
    acceleration = Vec3.make (ax t i) (ay t i) (az t i);
    mode = mode t i;
  }

let samples t = Array.init t.len (fun i -> sample_at t i)

let nth t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.nth: out of range";
  sample_at t i

let nth_padded t i =
  let n = t.len in
  if n = 0 then invalid_arg "Trace.nth_padded: empty trace";
  if i < 0 then invalid_arg "Trace.nth_padded: negative index";
  sample_at t (Int.min i (n - 1))

let altitude_series t = List.init t.len (fun i -> (time t i, pz t i))

(* The codec writes only the [len] recorded samples: slots beyond the
   write cursor are still at their [fresh_chunk] defaults (writes happen
   exactly once, at monotonically increasing indices), so rebuilding from
   fresh chunks reproduces the trace bit-for-bit.

   A chunk's first [n] samples are a segment: each float column as [n]
   bit patterns, then the mode labels as runs of equal labels, (count,
   label) each, counts positive and summing to [n]. A mode lasts seconds
   at 10 Hz, so a run stands for dozens of samples. *)
let encode_segment b c n =
  let open Avis_util.Codec in
  w_floats b c.c_time ~len:n;
  w_floats b c.c_px ~len:n;
  w_floats b c.c_py ~len:n;
  w_floats b c.c_pz ~len:n;
  w_floats b c.c_ax ~len:n;
  w_floats b c.c_ay ~len:n;
  w_floats b c.c_az ~len:n;
  let i = ref 0 in
  while !i < n do
    let label = c.c_mode.(!i) in
    let j = ref (!i + 1) in
    while !j < n && String.equal c.c_mode.(!j) label do incr j done;
    w_int b (!j - !i);
    w_string b label;
    i := !j
  done

(* Every sample of a run shares the run's one decoded label. *)
let decode_segment r c n =
  let open Avis_util.Codec in
  r_floats_into r c.c_time ~len:n;
  r_floats_into r c.c_px ~len:n;
  r_floats_into r c.c_py ~len:n;
  r_floats_into r c.c_pz ~len:n;
  r_floats_into r c.c_ax ~len:n;
  r_floats_into r c.c_ay ~len:n;
  r_floats_into r c.c_az ~len:n;
  let filled = ref 0 in
  while !filled < n do
    let count = r_int r in
    if count < 1 || count > n - !filled then corrupt "bad mode run of %d" count;
    Array.fill c.c_mode !filled count (r_string r);
    filled := !filled + count
  done

(* Sized for the floats and a few mode runs, so the buffer seldom grows. *)
let encode_chunk c =
  let b = Buffer.create ((chunk_cap * 56) + 256) in
  encode_segment b c chunk_cap;
  Buffer.contents b

let decode_chunk s =
  Avis_util.Codec.of_string
    (fun r ->
      let c = fresh_chunk () in
      decode_segment r c chunk_cap;
      c)
    s

(* The layout: period, length, schedule, the names of the leading full
   chunks (none without [put_chunk]), then every other chunk's segment. *)
let encode_snapshot ?put_chunk b (s : snapshot) =
  let open Avis_util.Codec in
  w_f64 b s.period;
  w_int b s.len;
  w_f64 b s.sched.(0);
  let names =
    match put_chunk with
    | None -> [||]
    | Some put -> Array.init (s.len lsr chunk_bits) (fun ci -> put s.chunks.(ci))
  in
  w_array b w_string names;
  for ci = Array.length names to ((s.len + chunk_cap - 1) lsr chunk_bits) - 1 do
    encode_segment b s.chunks.(ci)
      (Int.min chunk_cap (s.len - (ci lsl chunk_bits)))
  done

let no_chunk_store _ =
  Avis_util.Codec.corrupt "a trace chunk is named, but no chunk store is given"

let decode_snapshot ?(get_chunk = no_chunk_store) r : snapshot =
  let open Avis_util.Codec in
  let period = r_f64 r in
  let len = r_int r in
  let sched0 = r_f64 r in
  let names = r_array r r_string in
  let named = Array.length names in
  if len < 0 || named > len lsr chunk_bits then
    corrupt "bad trace length %d (%d chunks named)" len named;
  let shared = Array.map get_chunk names in
  (* Each other sample needs at least its 56 bytes of floats. *)
  let inline = len - (named lsl chunk_bits) in
  if inline > remaining r / 56 then corrupt "bad trace length %d" len;
  let chunks =
    Array.init
      ((len + chunk_cap - 1) lsr chunk_bits)
      (fun ci ->
        if ci < named then shared.(ci)
        else begin
          let c = fresh_chunk () in
          decode_segment r c (Int.min chunk_cap (len - (ci lsl chunk_bits)));
          c
        end)
  in
  { period; chunks; len; sched = [| sched0 |] }
