(** Recording of a simulated flight.

    The invariant monitor compares runs by the state tuple (P, α, M) —
    position, acceleration, mode — sampled at a fixed period; the trace is
    exactly that series, taken from the simulator's ground truth (the
    monitor observes physics, not the firmware's beliefs).

    Samples are stored in fixed-size columnar chunks: [record] is a few
    unboxed stores (O(1) amortised, allocation-free between chunk
    boundaries), [length], the column reads and [nth] are O(1), and
    snapshots share every chunk with the live trace. *)

open Avis_geo

type sample = {
  time : float;
  position : Vec3.t;
  acceleration : Vec3.t;
  mode : string;  (** The firmware's operating-mode label at this time. *)
}

type t

val create : ?period:float -> unit -> t
(** Sampling period defaults to 0.1 s (10 Hz). *)

val period : t -> float

type snapshot
(** The recorded series and sampling schedule, frozen. Every chunk, the
    partial tail included, is shared with the live trace: the snapshot
    reads only the samples recorded before it, and the live run only
    writes after them. This is the one layer that is not frozen through
    its codec: sharing the chunks keeps every checkpoint of a run from
    copying its past. *)

val snapshot : t -> snapshot

val restore : snapshot -> t
(** An independent trace that records on from the snapshot. The partial
    tail's filled prefix is copied into a fresh chunk (a chunk is 256
    samples, about 16 KB), so the restored trace and the run the snapshot
    came from never write into one chunk. *)

val snapshot_bytes : snapshot -> int
(** Heap bytes the snapshot alone holds: its record and chunk-pointer
    array. The chunks are shared and not counted. *)

val record :
  t -> steps:int -> dt:float -> Avis_physics.World.t -> mode:string -> unit
(** Append a sample if the period has elapsed since the last one. The
    sample time is [steps * dt] — computed here from the simulator's step
    counter so the call site passes no freshly boxed float. *)

val length : t -> int
(** O(1), allocation-free. *)

(** {2 Column reads}

    The [i]-th sample's fields, read straight from the columns, in O(1).
    A release build inlines them into the caller, so they allocate
    nothing; a dev build ([-opaque]) boxes each float read. This is how
    the monitor reads a run. They do not check [i]
    against {!length}: an index past it but inside the last chunk reads
    an unwritten slot (0.0 or [""]), and one past the last chunk raises
    [Invalid_argument]. *)

val time : t -> int -> float
val px : t -> int -> float
val py : t -> int -> float
val pz : t -> int -> float
(** Position, world frame (z up). *)

val ax : t -> int -> float
val ay : t -> int -> float
val az : t -> int -> float
(** Acceleration, world frame. *)

val mode : t -> int -> string

(** {2 Samples}

    Records built from the columns, for export and tests. *)

val samples : t -> sample array
(** All samples, oldest first, in an array built afresh on every call:
    three allocations per sample. *)

val nth : t -> int -> sample
(** O(1). Raises [Invalid_argument] when out of range. *)

val nth_padded : t -> int -> sample
(** Like [nth] but repeats the final sample beyond the end — the paper's
    padding rule for comparing runs of different durations. Raises
    [Invalid_argument] on an empty trace. *)

val altitude_series : t -> (float * float) list
(** (time, altitude) pairs, for figure reproduction. *)

(** {2 Codec}

    A snapshot's bytes hold only the samples actually recorded (chunk
    padding is reconstructed), floats by their bits, each float column of
    a chunk as one run, and the mode labels as runs of equal labels, one
    (count, label) pair per run. *)

type chunk
(** A full chunk: 256 samples, never written again. Decoded chunks can be
    shared by any number of snapshots and restored traces. *)

val encode_snapshot :
  ?put_chunk:(chunk -> string) -> Buffer.t -> snapshot -> unit
(** The recorded series. With [put_chunk], each full chunk is handed to
    it, and the name it returns is written in its place: a caller that
    files chunks by the content {!encode_chunk} gives writes each one
    once, however many snapshots share it, and as a full chunk never
    changes, it can remember the name it gave a chunk instead of encoding
    the chunk again. The partial tail, and every chunk without
    [put_chunk], is written inline. *)

val encode_chunk : chunk -> string
(** A full chunk's bytes: its 256 samples, as {!encode_snapshot} writes
    a segment. *)

val decode_snapshot :
  ?get_chunk:(string -> chunk) -> Avis_util.Codec.reader -> snapshot
(** Inverse of {!encode_snapshot}. [get_chunk] resolves a chunk name to
    the chunk [put_chunk] was handed, decoded from its {!encode_chunk}
    bytes by {!decode_chunk}; it must raise [Avis_util.Codec.Corrupt] when it
    cannot, and without it a named chunk is corrupt. Raises
    [Avis_util.Codec.Corrupt] on malformed input. *)

val decode_chunk : string -> chunk
(** The chunk whose bytes {!encode_chunk} gave. Raises
    [Avis_util.Codec.Corrupt] on anything else. *)
