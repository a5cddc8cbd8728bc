(* The splitmix64 state lives in 8 bytes, read and written through the
   int64 byte primitives, so a draw stores it unboxed: a [mutable int64]
   field would box a fresh state on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_bits state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_bits (Int64.of_int seed)

let to_bits t = get_state t 0

(* splitmix64 core: advance by the golden gamma, then mix. *)
let[@inline] bits64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_bits (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

(* The top 53 bits of the next output: exact as an int and as a float. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* The float draws are small, closure-free and [@inline], so across
   modules (without -opaque) a caller's arithmetic takes them unboxed. *)
let[@inline] uniform t =
  (* 53 random bits scaled into [0, 1). *)
  Float.of_int (bits53 t) *. (1.0 /. 9007199254740992.0)

let float t bound = uniform t *. bound

let[@inline] gaussian t =
  (* Box-Muller needs u1 > 0: redraw while all 53 bits are zero, the one
     way [uniform] returns 0. *)
  let v = ref (bits53 t) in
  while !v = 0 do
    v := bits53 t
  done;
  let u1 = Float.of_int !v *. (1.0 /. 9007199254740992.0) in
  let u2 = uniform t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let[@inline] gaussian_scaled t ~mean ~stddev = mean +. (stddev *. gaussian t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
