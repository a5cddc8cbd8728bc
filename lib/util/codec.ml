(* Binary state codecs: a Buffer-backed writer and a cursor-backed
   reader over the same explicit wire format. Everything
   numeric goes through Int64 bit patterns, so round-trips are exact to
   the float bit. No Marshal anywhere: every layer states its layout. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let remaining r = String.length r.data - r.pos

let finished r = remaining r = 0

(* ---------------- writers ---------------- *)

let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w_i64 b v = Buffer.add_int64_le b v

let w_int b v = w_i64 b (Int64.of_int v)

let w_f64 b v = w_i64 b (Int64.bits_of_float v)

let w_bool b v = w_u8 b (if v then 1 else 0)

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_option b f = function
  | None -> w_u8 b 0
  | Some v ->
    w_u8 b 1;
    f b v

let w_list b f xs =
  w_int b (List.length xs);
  List.iter (fun x -> f b x) xs

let w_array b f xs =
  w_int b (Array.length xs);
  Array.iter (fun x -> f b x) xs

(* The first [len] floats of [a], with no count: the reader knows it. One
   loop, so no float or int64 is boxed. *)
let w_floats b a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Codec.w_floats";
  for i = 0 to len - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float (Array.unsafe_get a i))
  done

let w_float_array b xs =
  w_int b (Array.length xs);
  w_floats b xs ~len:(Array.length xs)

(* ---------------- readers ---------------- *)

let r_u8 r =
  if remaining r < 1 then corrupt "truncated input (u8)";
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_i64 r =
  if remaining r < 8 then corrupt "truncated input (i64)";
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r =
  let v = r_i64 r in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then corrupt "integer out of range";
  i

let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "bad bool tag %d" v

(* Every element of a counted sequence occupies at least one byte, so a
   length exceeding the remaining input is corruption, not a huge
   allocation waiting to happen. *)
let r_count r =
  let n = r_int r in
  if n < 0 || n > remaining r then corrupt "bad sequence length %d" n;
  n

let r_string r =
  let n = r_count r in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_option r f =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | v -> corrupt "bad option tag %d" v

let r_list r f =
  let n = r_count r in
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f r :: acc) in
  go 0 []

let r_array r f =
  let n = r_count r in
  Array.init n (fun _ -> f r)

(* One bounds check for the whole run, then unboxed loads. *)
let r_floats_into r a ~len =
  if len < 0 || len > Array.length a || len > remaining r / 8 then
    corrupt "bad float run of %d" len;
  let base = r.pos in
  for i = 0 to len - 1 do
    Array.unsafe_set a i
      (Int64.float_of_bits (String.get_int64_le r.data (base + (8 * i))))
  done;
  r.pos <- base + (8 * len)

let r_float_array r =
  let n = r_count r in
  if n > remaining r / 8 then corrupt "bad float-array length %d" n;
  let a = Array.make n 0.0 in
  r_floats_into r a ~len:n;
  a

(* ---------------- framing ---------------- *)

(* Length-prefixed nesting: an encoded string travels inside another
   payload without the outer layer knowing its layout. *)
let w_bytes = w_string
let r_bytes = r_string

let to_string f v =
  let b = Buffer.create 256 in
  f b v;
  Buffer.contents b

let of_string f s =
  let r = reader s in
  let v = f r in
  if not (finished r) then corrupt "trailing bytes after value";
  v
