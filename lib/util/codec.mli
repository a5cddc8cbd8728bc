(** Explicit binary codecs for checkpoints.

    A [Buffer.t]-backed writer and a cursor [reader] over one wire
    format: little-endian 64-bit integers, floats by their
    [Int64.bits_of_float] pattern (round-trips are bit-exact), counted
    sequences and tagged options. Any malformed input — truncation, bad
    tag, impossible length — raises {!Corrupt}; callers that read
    untrusted bytes (the on-disk checkpoint store) catch it and treat the
    entry as a miss. [Marshal] is deliberately not used anywhere: every
    layout is explicit. No layout carries a version: encoded bytes never
    cross builds, because the store names its files under the build's
    code fingerprint. *)

exception Corrupt of string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Corrupt} with a formatted message. *)

type reader

val reader : string -> reader
val remaining : reader -> int
val finished : reader -> bool

val w_u8 : Buffer.t -> int -> unit
val w_i64 : Buffer.t -> int64 -> unit
val w_int : Buffer.t -> int -> unit
val w_f64 : Buffer.t -> float -> unit
val w_bool : Buffer.t -> bool -> unit
val w_string : Buffer.t -> string -> unit
val w_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val w_array : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val w_float_array : Buffer.t -> float array -> unit

val w_floats : Buffer.t -> float array -> len:int -> unit
(** The first [len] floats of the array, by their bits, with no count:
    the reader must know [len]. Raises [Invalid_argument] when the array
    is shorter than [len]. *)

val r_u8 : reader -> int
val r_i64 : reader -> int64
val r_int : reader -> int
val r_f64 : reader -> float
val r_bool : reader -> bool
val r_string : reader -> string
val r_option : reader -> (reader -> 'a) -> 'a option
val r_list : reader -> (reader -> 'a) -> 'a list
val r_array : reader -> (reader -> 'a) -> 'a array
val r_float_array : reader -> float array

val r_floats_into : reader -> float array -> len:int -> unit
(** Read [len] floats written by {!w_floats} into the array's first [len]
    slots; {!Corrupt} when fewer than [8 * len] bytes remain or the array
    is shorter than [len]. *)

val w_bytes : Buffer.t -> string -> unit
(** Length-prefixed blob: an already-encoded string carried whole inside
    another payload. *)

val r_bytes : reader -> string

val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string
(** Run a writer into a fresh buffer and return its contents. *)

val of_string : (reader -> 'a) -> string -> 'a
(** Run a reader over a whole string; {!Corrupt} on trailing bytes. *)
