(** Frame-level encoding and a resynchronising streaming decoder.

    Frames follow MAVLink 1's layout: a start byte, length, sequence number,
    system/component ids, message id, payload, and a 16-bit X25 checksum
    that also covers a per-message-type extra byte. The decoder consumes a
    byte stream, skips garbage until a start byte, and validates checksums,
    so a corrupted or truncated frame is dropped rather than mis-parsed. *)

type frame = { seq : int; sysid : int; compid : int; message : Msg.t }

val stx : char
(** Start-of-frame marker. *)

val encode : seq:int -> sysid:int -> compid:int -> Msg.t -> string
(** A complete wire frame. *)

type decoder

val decoder : unit -> decoder

val encode_decoder : Buffer.t -> decoder -> unit
(** Binary layout: buffered bytes plus the drop counter. *)

val decode_decoder : Avis_util.Codec.reader -> decoder
(** Inverse of {!encode_decoder}; raises [Avis_util.Codec.Corrupt] on
    malformed input. *)

val feed : decoder -> string -> frame list
(** Push received bytes; returns the frames completed by this chunk, in
    order. Frames with bad checksums or unknown message ids are counted and
    discarded. *)

val dropped : decoder -> int
(** Number of frames discarded so far (bad CRC, unknown id, or garbage). *)
