type t = {
  dir : string;
  fingerprint : string;
  config_key : string;
  budget_bytes : int;
  mutable evictions : int;
  mutable bytes : int;
      (** Directory size at the last scan, plus this instance's own writes
          and minus its own deletions since. *)
  mutable tmp_counter : int;
}

let suffix = ".ckpt"

let default_fingerprint () =
  match Digest.file Sys.executable_name with
  | d -> Digest.to_hex d
  | exception _ -> "unknown"

let is_checkpoint name = Filename.check_suffix name suffix

let scan_bytes t =
  let total = ref 0 in
  (try
     Array.iter
       (fun name ->
         if is_checkpoint name then
           try
             total :=
               !total + (Unix.stat (Filename.concat t.dir name)).Unix.st_size
           with _ -> ())
       (Sys.readdir t.dir)
   with _ -> ());
  t.bytes <- !total;
  !total

let create ?fingerprint ?store_mb ~dir ~config_key () =
  (try
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
   with _ -> ());
  let fingerprint =
    match fingerprint with Some f -> f | None -> default_fingerprint ()
  in
  let t =
    {
      dir;
      fingerprint;
      config_key;
      (* A typo'd AVIS_STORE_MB must not silently disable (or unbound)
         the store. *)
      budget_bytes =
        Avis_util.Env.budget_bytes ?mb:store_mb ~arg:"store_mb"
          ~var:"AVIS_STORE_MB" ~default_mb:1024 ();
      evictions = 0;
      bytes = 0;
      tmp_counter = 0;
    }
  in
  ignore (scan_bytes t);
  t

(* The content address: everything that must be bit-identical for a stored
   snapshot to be sound. The null separators keep distinct triples from
   colliding by concatenation. *)
let key_hash t ~fault_key =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ t.fingerprint; t.config_key; fault_key ]))

let file_name t ~fault_key ~time =
  Printf.sprintf "%s-%016Lx%s" (key_hash t ~fault_key)
    (Int64.bits_of_float time) suffix

(* File layout: magic, format version, MD5 of the payload, payload length,
   payload. The digest is over the payload only; magic/version/length
   mismatches are detected structurally. *)
let magic = "AVCK"
let format_version = '\001'

let frame_payload payload =
  let b = Buffer.create (String.length payload + 29) in
  Buffer.add_string b magic;
  Buffer.add_char b format_version;
  Buffer.add_string b (Digest.string payload);
  Buffer.add_int64_le b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

let header_len = 4 + 1 + 16 + 8

let unframe data =
  let n = String.length data in
  if n < header_len then None
  else if String.sub data 0 4 <> magic then None
  else if data.[4] <> format_version then None
  else
    let digest = String.sub data 5 16 in
    let len = Int64.to_int (String.get_int64_le data 21) in
    if len < 0 || len <> n - header_len then None
    else
      let payload = String.sub data header_len len in
      if Digest.string payload <> digest then None else Some payload

(* Oldest-mtime-first deletion until the directory fits the budget, with
   mtime ties broken by path: coarse filesystem timestamps (1 s mtime
   granularity) routinely leave whole batches of checkpoints with equal
   mtimes, and sorting those by anything else (size, inode order) would
   make the surviving set filesystem-dependent. Other processes may be
   adding or deleting concurrently; every step tolerates files vanishing
   underneath it. *)
let evict_to_budget t =
  if scan_bytes t > t.budget_bytes then begin
    let entries = ref [] in
    (try
       Array.iter
         (fun name ->
           if is_checkpoint name then
             let path = Filename.concat t.dir name in
             try
               let st = Unix.stat path in
               entries :=
                 (st.Unix.st_mtime, path, st.Unix.st_size) :: !entries
             with _ -> ())
         (Sys.readdir t.dir)
     with _ -> ());
    let by_age = List.sort compare !entries in
    let excess = ref (t.bytes - t.budget_bytes) in
    List.iter
      (fun (_, path, size) ->
        if !excess > 0 then begin
          (try
             Sys.remove path;
             excess := !excess - size;
             t.bytes <- t.bytes - size;
             t.evictions <- t.evictions + 1
           with _ -> ())
        end)
      by_age
  end

let put t ~fault_key ~time ~payload =
  try
    let target = Filename.concat t.dir (file_name t ~fault_key ~time) in
    if not (Sys.file_exists target) then begin
      let framed = frame_payload (Lazy.force payload) in
      t.tmp_counter <- t.tmp_counter + 1;
      let tmp =
        Filename.concat t.dir
          (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) t.tmp_counter)
      in
      let oc =
        open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
      in
      (try
         output_string oc framed;
         close_out oc;
         (* Atomic on POSIX: a concurrent reader sees either no file or the
            whole file, never a partial write. *)
         Sys.rename tmp target
       with e ->
         (try close_out_noerr oc; Sys.remove tmp with _ -> ());
         raise e);
      t.bytes <- t.bytes + String.length framed;
      if t.bytes > t.budget_bytes then evict_to_budget t
    end
  with _ -> ()

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with _ -> None

(* Candidates under [fault_key]: files whose name starts with the key hash,
   their capture time decoded from the name. Newest first. *)
let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let candidates t ~fault_key ~before =
  let prefix = key_hash t ~fault_key ^ "-" in
  let plen = String.length prefix in
  let found = ref [] in
  (try
     Array.iter
       (fun name ->
         if
           is_checkpoint name
           && String.length name = plen + 16 + String.length suffix
           && String.sub name 0 plen = prefix
         then begin
           let hex = String.sub name plen 16 in
           (* Exactly 16 hex digits: [Int64.of_string] would also accept
              underscores and sign characters a well-formed name never has.
              The parse cannot overflow — any 16-digit value fits an
              [Int64] bit pattern. *)
           if String.for_all is_hex hex then
             match Int64.of_string_opt ("0x" ^ hex) with
             | Some bits ->
               let time = Int64.float_of_bits bits in
               if time < before && time >= 0.0 then
                 found := (time, Filename.concat t.dir name) :: !found
             | None -> ()
         end)
       (Sys.readdir t.dir)
   with _ -> ());
  List.sort (fun (a, _) (b, _) -> compare b a) !found

let lookup t ~fault_key ~before =
  let rec first = function
    | [] -> None
    | (time, path) :: rest -> (
      match read_file path with
      | None -> first rest
      | Some data -> (
        match unframe data with
        | Some payload ->
          (* LRU touch: both timestamps to "now". *)
          (try Unix.utimes path 0.0 0.0 with _ -> ());
          Some (time, payload)
        | None ->
          (* Corrupt (truncated, bit-flipped, or foreign): delete so it is
             never tried again, and keep looking at older candidates. The
             file may be another writer's, written after the last scan, so
             the count is clamped rather than allowed below zero. *)
          (try
             Sys.remove path;
             t.bytes <- max 0 (t.bytes - String.length data)
           with _ -> ());
          first rest))
  in
  first (candidates t ~fault_key ~before)

let bytes t = t.bytes
let evictions t = t.evictions
