(** Small statistics helpers used by the monitor and the bench harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val min_max : float list -> float * float
(** Smallest and largest element. Raises [Invalid_argument] on empty input. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0, 100\]], nearest-rank method.
    Raises [Invalid_argument] on empty input or out-of-range [p]. *)

val clamp : lo:float -> hi:float -> float -> float
(** Restrict a value to an interval. *)

val clampi : lo:int -> hi:int -> int -> int
(** Integer [clamp]. *)
