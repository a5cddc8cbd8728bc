(** The mode graph (§IV-C).

    A directed graph whose nodes are operating-mode labels and whose edges
    are the mode-change events observed in profiling runs. The liveliness
    metric uses shortest-path distances between modes, normalised by the
    graph's diameter. Modes that were never observed, or pairs with no
    directed path either way, are assigned the diameter — maximally
    different. *)

type t

val build : transitions:(string * string) list list -> t
(** One transition list per profiling run, as (from, to) label pairs. Every
    label mentioned becomes a node. *)

val modes : t -> string list
(** All node labels, in first-observed order. *)

val has_mode : t -> string -> bool

val distance : t -> string -> string -> int
(** Length of the shortest directed path (in either direction — we take the
    smaller of the two, since "how far apart are these modes" is
    symmetric). Identical modes are at distance 0; unknown modes or
    unreachable pairs are at [diameter]. *)

val diameter : t -> int
(** The longest finite shortest-path distance — the paper's [D], the
    normalisation scale. At least 1 even for degenerate graphs. *)

val edges : t -> (string * string) list
(** Distinct observed edges. *)

val encode : Buffer.t -> t -> unit
(** The transition lists the graph was built from. *)

val decode : Avis_util.Codec.reader -> t
(** Inverse of {!encode}: {!build} over the decoded transitions, so the
    nodes, distances and {!edges} come out in the order they were built
    in. Raises [Avis_util.Codec.Corrupt] on malformed input or on more
    than 256 mode labels. *)
