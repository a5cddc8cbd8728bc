type t = {
  dir : string;
  fingerprint : string;
  budget_bytes : int;
  mutable evictions : int;
  mutable writes : int;  (** Files this instance wrote. *)
  mutable bytes : int;
      (** Directory size at the last scan, plus this instance's own writes
          and minus its own deletions since. *)
  checkpoints : (string, (float * int) list) Hashtbl.t;
      (** Key hash -> (capture time, file size), in no order. *)
  profiles : (string, int) Hashtbl.t;  (** Key hash -> file size. *)
  chunks : (string, int) Hashtbl.t;  (** Key hash -> file size. *)
}

let checkpoint_suffix = ".ckpt"
let profile_suffix = ".prof"
let chunk_suffix = ".chunk"

(* The content address: the code fingerprint and everything that must be
   bit-identical for a stored file to be sound. The null separator keeps
   distinct pairs from colliding by concatenation. *)
let key_hash t ~key = Digest.to_hex (Digest.string (t.fingerprint ^ "\x00" ^ key))

let checkpoint_name hash time =
  Printf.sprintf "%s-%016Lx%s" hash (Int64.bits_of_float time) checkpoint_suffix

let profile_name hash = hash ^ profile_suffix
let chunk_name hash = hash ^ chunk_suffix

type file = Checkpoint of string * float | Profile of string | Chunk of string

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let all_hex s ~pos ~len =
  let rec go i = i >= pos + len || (is_hex s.[i] && go (i + 1)) in
  go pos

(* The inverse of [checkpoint_name], [profile_name] and [chunk_name]. The
   time must be exactly 16 hex digits: [Int64.of_string] would also accept
   underscores and sign characters a well-formed name never has, and any
   16-digit value fits an [Int64] bit pattern. *)
let parse_name name =
  let hash_len = 32 in
  let n = String.length name in
  if
    n = hash_len + 1 + 16 + String.length checkpoint_suffix
    && Filename.check_suffix name checkpoint_suffix
    && name.[hash_len] = '-'
    && all_hex name ~pos:0 ~len:hash_len
    && all_hex name ~pos:(hash_len + 1) ~len:16
  then
    Some
      (Checkpoint
         ( String.sub name 0 hash_len,
           Int64.float_of_bits
             (Int64.of_string ("0x" ^ String.sub name (hash_len + 1) 16)) ))
  else
    let hashed suffix =
      n = hash_len + String.length suffix
      && Filename.check_suffix name suffix
      && all_hex name ~pos:0 ~len:hash_len
    in
    if hashed profile_suffix then Some (Profile (String.sub name 0 hash_len))
    else if hashed chunk_suffix then Some (Chunk (String.sub name 0 hash_len))
    else None

let is_store_file name =
  Filename.check_suffix name checkpoint_suffix
  || Filename.check_suffix name profile_suffix
  || Filename.check_suffix name chunk_suffix

let index_add t name size =
  match parse_name name with
  | Some (Checkpoint (hash, time)) when time >= 0.0 ->
    (* Only a non-negative time can be served ([time >= 0.0] is false for
       NaN too). *)
    let existing =
      Option.value ~default:[] (Hashtbl.find_opt t.checkpoints hash)
    in
    Hashtbl.replace t.checkpoints hash ((time, size) :: existing)
  | Some (Profile hash) -> Hashtbl.replace t.profiles hash size
  | Some (Chunk hash) -> Hashtbl.replace t.chunks hash size
  | Some (Checkpoint _) | None -> ()

(* Drop a file this instance no longer has on disk: out of the index, and
   its size out of [bytes]. The file may be another writer's, written
   after the last scan, so the count is clamped rather than allowed below
   zero. *)
let forget t name size =
  t.bytes <- Int.max 0 (t.bytes - size);
  match parse_name name with
  | Some (Checkpoint (hash, time)) -> (
    match Hashtbl.find_opt t.checkpoints hash with
    | None -> ()
    | Some entries -> (
      match List.filter (fun (t', _) -> t' <> time) entries with
      | [] -> Hashtbl.remove t.checkpoints hash
      | rest -> Hashtbl.replace t.checkpoints hash rest))
  | Some (Profile hash) -> Hashtbl.remove t.profiles hash
  | Some (Chunk hash) -> Hashtbl.remove t.chunks hash
  | None -> ()

(* The one directory listing: every store file is stat'ed once, and
   [bytes] and the index are rebuilt from what is found. Returns the files
   as (mtime, name, size) for eviction. Other processes may be adding or
   deleting concurrently; a file that vanishes between the listing and
   its stat is simply not found. *)
let scan t =
  Hashtbl.reset t.checkpoints;
  Hashtbl.reset t.profiles;
  Hashtbl.reset t.chunks;
  let files = ref [] and total = ref 0 in
  (try
     Array.iter
       (fun name ->
         if is_store_file name then
           match Unix.stat (Filename.concat t.dir name) with
           | st ->
             let size = st.Unix.st_size in
             total := !total + size;
             files := (st.Unix.st_mtime, name, size) :: !files;
             index_add t name size
           | exception _ -> ())
       (Sys.readdir t.dir)
   with _ -> ());
  t.bytes <- !total;
  !files

let create ?(fingerprint = Avis_fingerprint.hex) ?store_mb ~dir () =
  (try
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
   with _ -> ());
  let t =
    {
      dir;
      fingerprint;
      (* A typo'd AVIS_STORE_MB must not silently disable (or unbound)
         the store. *)
      budget_bytes =
        Avis_util.Env.budget_bytes ?mb:store_mb ~arg:"store_mb"
          ~var:"AVIS_STORE_MB" ~default_mb:1024 ();
      evictions = 0;
      writes = 0;
      bytes = 0;
      checkpoints = Hashtbl.create 256;
      profiles = Hashtbl.create 8;
      chunks = Hashtbl.create 64;
    }
  in
  ignore (scan t : (float * string * int) list);
  t

(* File layout: magic, MD5 of the payload, payload length, payload. The
   digest is over the payload only; magic and length mismatches are
   detected structurally. No byte carries a layout version: a file's name
   holds the build's fingerprint, so no other build reads it. *)
let magic = "AVCK"

let header_len = 4 + 16 + 8

let frame_payload payload =
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b magic;
  Buffer.add_string b (Digest.string payload);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

type framed = Missing | Damaged | Payload of string

(* Read a file's header, check it against the file's size, then read the
   payload into a string of its own and check its digest: the payload is
   the read's one large allocation. A file that cannot be opened or read
   is [Missing]. *)
let read_framed path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception _ -> Missing
  | fd -> (
    let rec fill buf pos len =
      len = 0
      ||
      match Unix.read fd buf pos len with
      | 0 -> false
      | n -> fill buf (pos + n) (len - n)
    in
    try
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let len = (Unix.fstat fd).Unix.st_size - header_len in
      let header = Bytes.create header_len in
      if len < 0 || not (fill header 0 header_len) then Damaged
      else
        let h = Bytes.unsafe_to_string header in
        if
          String.sub h 0 4 <> magic
          || Int64.to_int (String.get_int64_le h 20) <> len
        then Damaged
        else
          let payload = Bytes.create len in
          if not (fill payload 0 len) then Damaged
          else
            let p = Bytes.unsafe_to_string payload in
            if Digest.string p = String.sub h 4 16 then Payload p else Damaged
    with _ -> Missing)

(* Oldest-mtime-first deletion until the directory fits the budget, with
   mtime ties broken by name: coarse filesystem timestamps (1 s mtime
   granularity) routinely leave whole batches of files with equal
   mtimes, and sorting those by anything else (size, inode order) would
   make the surviving set filesystem-dependent. Every step tolerates
   files vanishing underneath it. *)
let evict_to_budget t =
  let files = scan t in
  if t.bytes > t.budget_bytes then begin
    let excess = ref (t.bytes - t.budget_bytes) in
    List.iter
      (fun (_, name, size) ->
        if !excess > 0 then
          try
            Sys.remove (Filename.concat t.dir name);
            excess := !excess - size;
            forget t name size;
            t.evictions <- t.evictions + 1
          with _ -> ())
      (List.sort compare files)
  end

(* Temp names are unique per process, across instances: two cells of one
   process writing one directory from two domains must never share a temp
   file, or one's complete, checksummed frame could be renamed under the
   other's key. *)
let tmp_counter = Atomic.make 0

(* Write [payload] under [name] through a temp file and an atomic rename,
   then count and index it. *)
let write t ~name ~payload =
  let framed = frame_payload payload in
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  (try
     output_string oc framed;
     close_out oc;
     (* Atomic on POSIX: a concurrent reader sees either no file or the
        whole file, never a partial write. *)
     Sys.rename tmp (Filename.concat t.dir name)
   with e ->
     (try close_out_noerr oc; Sys.remove tmp with _ -> ());
     raise e);
  let size = String.length framed in
  t.writes <- t.writes + 1;
  t.bytes <- t.bytes + size;
  index_add t name size;
  if t.bytes > t.budget_bytes then evict_to_budget t

(* The decoded payload of an indexed file of [size] bytes. A file that
   cannot be read (deleted behind this instance's back) is forgotten; a
   corrupt one (truncated, bit-flipped, or foreign), or one whose payload
   [decode] rejects, is deleted as well, so neither is tried again. *)
let read t ~name ~size ~decode =
  let path = Filename.concat t.dir name in
  let delete () =
    (try Sys.remove path with _ -> ());
    forget t name size;
    None
  in
  match read_framed path with
  | Missing ->
    forget t name size;
    None
  | Damaged -> delete ()
  | Payload payload -> (
    match decode payload with
    | value ->
      (* LRU touch: both timestamps to "now". *)
      (try Unix.utimes path 0.0 0.0 with _ -> ());
      Some value
    | exception Avis_util.Codec.Corrupt _ -> delete ())

let put t ~key ~time ~payload =
  try
    let hash = key_hash t ~key in
    let indexed =
      match Hashtbl.find_opt t.checkpoints hash with
      | Some entries -> List.exists (fun (t', _) -> t' = time) entries
      | None -> false
    in
    let name = checkpoint_name hash time in
    if not (indexed || Sys.file_exists (Filename.concat t.dir name)) then
      write t ~name ~payload:(Lazy.force payload)
  with _ -> ()

let latest t ~key ~before =
  List.fold_left
    (fun best (time, _) ->
      match best with
      | Some b when b >= time -> best
      | _ when time < before -> Some time
      | _ -> best)
    None
    (Option.value ~default:[]
       (Hashtbl.find_opt t.checkpoints (key_hash t ~key)))

let load t ~key ~time ~decode =
  let hash = key_hash t ~key in
  match Hashtbl.find_opt t.checkpoints hash with
  | None -> None
  | Some entries -> (
    match List.find_opt (fun (t', _) -> t' = time) entries with
    | None -> None
    | Some (_, size) -> read t ~name:(checkpoint_name hash time) ~size ~decode)

(* A chunk is addressed by its own bytes, so a file under its name that
   is the size of their frame holds exactly them, whoever wrote it. A file
   of any other size is damaged and is written again; a same-size
   bit flip is caught when the chunk is loaded, which deletes it. *)
let put_chunk t payload =
  let digest = Digest.string payload in
  (try
     let hash = key_hash t ~key:digest in
     let name = chunk_name hash in
     let indexed = Hashtbl.find_opt t.chunks hash in
     let size =
       match indexed with
       | Some _ -> indexed
       | None -> (
         match Unix.stat (Filename.concat t.dir name) with
         | st -> Some st.Unix.st_size
         | exception Unix.Unix_error _ -> None)
     in
     if size <> Some (header_len + String.length payload) then begin
       Option.iter (forget t name) indexed;
       write t ~name ~payload
     end
   with _ -> ());
  digest

(* An unindexed chunk is read all the same: another writer may have filed
   it after this instance's scan. *)
let load_chunk t name ~decode =
  let hash = key_hash t ~key:name in
  read t ~name:(chunk_name hash)
    ~size:(Option.value ~default:0 (Hashtbl.find_opt t.chunks hash))
    ~decode

let put_profile t ~key ~payload =
  try
    let hash = key_hash t ~key in
    let name = profile_name hash in
    (* A profile is written only after a miss; the file it replaces, if
       any, did not decode. *)
    Option.iter (forget t name) (Hashtbl.find_opt t.profiles hash);
    write t ~name ~payload
  with _ -> ()

let find_profile t ~key =
  let hash = key_hash t ~key in
  match Hashtbl.find_opt t.profiles hash with
  | None -> None
  | Some size -> read t ~name:(profile_name hash) ~size ~decode:Fun.id

let bytes t = t.bytes
let evictions t = t.evictions
let writes t = t.writes
