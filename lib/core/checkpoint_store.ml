type t = {
  dir : string;
  fingerprint : string;
  budget_bytes : int;
  mutable writes : int;  (** Files this instance wrote. *)
  mutable bytes : int;  (** The sum of the sizes in [files]. *)
  files : (string, int) Hashtbl.t;
      (** Every store file this instance holds, checkpoints, chunks and
          profiles alike: name -> size. *)
  times : (string, float list) Hashtbl.t;
      (** Checkpoint key hash -> the capture times of its files, in no
          order. *)
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

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let all_hex s ~pos ~len =
  let rec go i = i >= pos + len || (is_hex s.[i] && go (i + 1)) in
  go pos

(* The key hash and capture time of a checkpoint name, the inverse of
   [checkpoint_name]; no other name parses. The time must be exactly 16
   hex digits: [Int64.of_string] would also accept underscores and sign
   characters a well-formed name never has, and any 16-digit value fits
   an [Int64] bit pattern. *)
let parse_name name =
  let hash_len = 32 in
  if
    String.length name = hash_len + 1 + 16 + String.length checkpoint_suffix
    && Filename.check_suffix name checkpoint_suffix
    && name.[hash_len] = '-'
    && all_hex name ~pos:0 ~len:hash_len
    && all_hex name ~pos:(hash_len + 1) ~len:16
  then
    Some
      ( String.sub name 0 hash_len,
        Int64.float_of_bits
          (Int64.of_string ("0x" ^ String.sub name (hash_len + 1) 16)) )
  else None

let is_store_file name =
  Filename.check_suffix name checkpoint_suffix
  || Filename.check_suffix name profile_suffix
  || Filename.check_suffix name chunk_suffix

let times_of t hash = Option.value ~default:[] (Hashtbl.find_opt t.times hash)

(* Hold [name] at [size]. A checkpoint's time goes into [times] the first
   time its name is held; only a non-negative time can be served
   ([time >= 0.0] is false for NaN too). *)
let index t name size =
  (match Hashtbl.find_opt t.files name with
  | Some old -> t.bytes <- t.bytes - old
  | None -> (
    match parse_name name with
    | Some (hash, time) when time >= 0.0 ->
      Hashtbl.replace t.times hash (time :: times_of t hash)
    | Some _ | None -> ()));
  Hashtbl.replace t.files name size;
  t.bytes <- t.bytes + size

(* Drop a file this instance no longer has on disk. *)
let forget t name =
  match Hashtbl.find_opt t.files name with
  | None -> ()
  | Some size -> (
    Hashtbl.remove t.files name;
    t.bytes <- t.bytes - size;
    match parse_name name with
    | None -> ()
    | Some (hash, time) -> (
      match List.filter (fun t' -> t' <> time) (times_of t hash) with
      | [] -> Hashtbl.remove t.times hash
      | rest -> Hashtbl.replace t.times hash rest))

(* A store whose directory cannot be listed serves nothing it did not
   write, and says so once per process. *)
let unlisted_warned = Atomic.make false

(* The one directory listing: every store file is stat'ed once, and the
   index is rebuilt from what is found. Returns the files as (mtime,
   name) for eviction. Other processes may be adding or deleting
   concurrently; a file that vanishes between the listing and its stat is
   simply not found. *)
let scan t =
  Hashtbl.reset t.files;
  Hashtbl.reset t.times;
  t.bytes <- 0;
  match Sys.readdir t.dir with
  | exception Sys_error e ->
    if not (Atomic.exchange unlisted_warned true) then
      (* [e] names the path and the error. *)
      Printf.eprintf
        "[avis] warning: cannot list the checkpoint store (%s); running on \
         without its files\n%!"
        e;
    []
  | names ->
    Array.fold_left
      (fun files name ->
        if not (is_store_file name) then files
        else
          match Unix.stat (Filename.concat t.dir name) with
          | st ->
            index t name st.Unix.st_size;
            (st.Unix.st_mtime, name) :: files
          | exception Unix.Unix_error _ -> files)
      [] names

(* Make [dir] and each missing parent. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(fingerprint = Avis_fingerprint.hex) ?store_mb ~dir () =
  (* A failure shows at the scan, which warns. *)
  (try mkdir_p dir with Unix.Unix_error _ | Sys_error _ -> ());
  let t =
    {
      dir;
      fingerprint;
      (* A typo'd AVIS_STORE_MB must not silently disable (or unbound)
         the store. *)
      budget_bytes =
        Avis_util.Env.budget_bytes ?mb:store_mb ~arg:"store_mb"
          ~var:"AVIS_STORE_MB" ~default_mb:1024 ();
      writes = 0;
      bytes = 0;
      files = Hashtbl.create 256;
      times = Hashtbl.create 128;
    }
  in
  ignore (scan t : (float * string) list);
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
  if t.bytes > t.budget_bytes then
    List.iter
      (fun (_, name) ->
        if t.bytes > t.budget_bytes then
          try
            Sys.remove (Filename.concat t.dir name);
            forget t name
          with Sys_error _ -> ())
      (List.sort compare files)

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
  t.writes <- t.writes + 1;
  index t name (String.length framed);
  if t.bytes > t.budget_bytes then evict_to_budget t

(* Whether a file under [name] is held at a size [accept] takes: its
   indexed size, else its size on disk. *)
let holds t ~name ~accept =
  match Hashtbl.find_opt t.files name with
  | Some size -> accept size
  | None -> (
    match Unix.stat (Filename.concat t.dir name) with
    | st -> accept st.Unix.st_size
    | exception Unix.Unix_error _ -> false)

(* The one write rule: [payload] goes under [name] unless a file is held
   there at a size [accept] takes, and it is forced only when it is
   written. A failure is ignored: the file is then not held. *)
let put_file t ~name ~accept payload =
  try
    if not (holds t ~name ~accept) then
      write t ~name ~payload:(Lazy.force payload)
  with _ -> ()

(* The one read rule: open the file under [name], indexed or not, check
   its frame, [decode] its payload and touch its mtime (LRU: both
   timestamps to "now"). A file that cannot be opened (deleted behind this
   instance's back, or never there) is forgotten; a corrupt one
   (truncated, bit-flipped, or foreign), or one whose payload [decode]
   rejects, is deleted as well, so neither is tried again. *)
let read t ~name ~decode =
  let path = Filename.concat t.dir name in
  let delete () =
    (try Sys.remove path with Sys_error _ -> ());
    forget t name;
    None
  in
  match read_framed path with
  | Missing ->
    forget t name;
    None
  | Damaged -> delete ()
  | Payload payload -> (
    match decode payload with
    | value ->
      (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      Some value
    | exception Avis_util.Codec.Corrupt _ -> delete ())

let any_size (_ : int) = true

let put t ~key ~time ~payload =
  put_file t ~name:(checkpoint_name (key_hash t ~key) time) ~accept:any_size
    payload

let latest t ~key ~before =
  List.fold_left
    (fun best time ->
      match best with
      | Some b when b >= time -> best
      | _ when time < before -> Some time
      | _ -> best)
    None
    (times_of t (key_hash t ~key))

let load t ~key ~time ~decode =
  read t ~name:(checkpoint_name (key_hash t ~key) time) ~decode

(* A chunk is addressed by its own bytes, so a file under its name that
   is the size of their frame holds exactly them, whoever wrote it. A file
   of any other size is damaged and is written again; a same-size bit
   flip is caught when the chunk is loaded, which deletes it. *)
let framed_size length = Int.equal (header_len + length)

let put_chunk t payload =
  let digest = Digest.string payload in
  put_file t
    ~name:(chunk_name (key_hash t ~key:digest))
    ~accept:(framed_size (String.length payload))
    (Lazy.from_val payload);
  digest

let has_chunk t name ~length =
  holds t ~name:(chunk_name (key_hash t ~key:name)) ~accept:(framed_size length)

let load_chunk t name ~decode =
  read t ~name:(chunk_name (key_hash t ~key:name)) ~decode

let put_profile t ~key ~payload =
  put_file t ~name:(profile_name (key_hash t ~key)) ~accept:any_size payload

let find_profile t ~key ~decode =
  read t ~name:(profile_name (key_hash t ~key)) ~decode

let bytes t = t.bytes
let writes t = t.writes
