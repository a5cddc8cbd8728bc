(** Three-dimensional vectors.

    The simulator works in a local NED-like frame: x north, y east, z *up*
    (we keep z-up rather than NED's z-down because altitude arithmetic reads
    more naturally; the convention is applied consistently everywhere). *)

type t = { x : float; y : float; z : float }

val zero : t
val make : float -> float -> float -> t
val unit_x : t
val unit_y : t
val unit_z : t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val dot : t -> t -> float
val cross : t -> t -> t

val norm : t -> float
(** Euclidean length. *)

val norm_sq : t -> float
(** Squared length (cheaper; use for comparisons). *)

val dist : t -> t -> float
(** Euclidean distance between two points — the [d_e] of the paper's
    liveliness metric. *)

val normalize : t -> t
(** Unit vector in the same direction; [zero] maps to [zero]. *)

val lerp : t -> t -> float -> t
(** [lerp a b s] is [a + s*(b - a)]. *)

val horizontal : t -> t
(** Projection onto the ground plane (z set to 0). *)

val clamp_norm : float -> t -> t
(** [clamp_norm limit v] rescales [v] so its length does not exceed
    [limit] (which must be non-negative). *)

val is_zero : t -> bool
(** [a = zero] without the polymorphic compare's C call: component-wise
    float [=], so [-0.0] counts as zero and NaN never does. *)

val is_finite : t -> bool
(** All three components are finite (no NaN/inf). *)

val equal_eps : ?eps:float -> t -> t -> bool
(** Component-wise comparison within [eps] (default [1e-9]). *)

val encode : Buffer.t -> t -> unit
(** Write the three components by bit pattern (24 bytes). *)

val decode : Avis_util.Codec.reader -> t
(** Inverse of {!encode}; bit-exact. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Destination-passing variants over a mutable all-float record.

    [vec] is stored flat (an OCaml float record), so component reads and
    writes never allocate — the simulator's step kernel keeps its whole
    working set in preallocated [vec]s. Every kernel is float-for-float
    identical to its pure counterpart above (property-tested); in
    particular [normalize] maps the zero vector to zero and [clamp_norm]
    rejects negative limits and leaves short vectors untouched.
    Component-wise kernels tolerate [dst] aliasing an argument; [cross]
    reads its inputs before the first store, so aliasing is safe there
    too. *)
module Mut : sig
  type vec = { mutable x : float; mutable y : float; mutable z : float }

  val create : unit -> vec
  (** A fresh zero vector. *)

  val set : vec -> x:float -> y:float -> z:float -> unit
  val of_t : t -> vec
  val to_t : vec -> t

  val blit_t : t -> vec -> unit
  (** Overwrite [vec] with an immutable vector's components. *)

  val copy_into : vec -> vec -> unit
  (** [copy_into src dst] overwrites [dst] with [src]. *)

  val copy : vec -> vec

  val add : vec -> vec -> vec -> unit
  (** [add dst a b] stores [a + b] in [dst]. Same convention below. *)

  val sub : vec -> vec -> vec -> unit
  val neg : vec -> vec -> unit
  val scale : vec -> float -> vec -> unit
  val dot : vec -> vec -> float
  val cross : vec -> vec -> vec -> unit
  val norm : vec -> float
  val norm_sq : vec -> float
  val normalize : vec -> vec -> unit
  val horizontal : vec -> vec -> unit
  val clamp_norm : vec -> float -> vec -> unit
end
