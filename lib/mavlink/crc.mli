(** X25 / CRC-16-MCRF4XX checksum as used by MAVLink framing. *)

type t
(** Accumulator. *)

val init : unit -> t
(** Fresh accumulator (seed [0xFFFF]). *)

val accumulate : t -> char -> t
(** Fold one byte into the accumulator. *)

val accumulate_string : t -> string -> t

val value : t -> int
(** Current 16-bit checksum. *)

val of_string : string -> int
(** One-shot checksum of a whole string. *)
