(** Conversion between geodetic coordinates and local metres.

    MAVLink-style messages carry latitude/longitude in degrees (scaled to
    1e7 integers on the wire) and altitude in metres. The simulator works in
    a local tangent plane anchored at the mission's home location. A
    spherical-earth small-area approximation is exact enough for missions a
    few hundred metres across, which is all the paper's workloads use. *)

type geodetic = { lat : float; lon : float; alt : float }
(** Latitude and longitude in degrees, altitude in metres above the home
    plane. *)

type frame
(** A local tangent plane anchored at a home location. *)

val earth_radius_m : float

val frame_at : geodetic -> frame
(** Local frame anchored at the given home point. *)

val to_local : frame -> geodetic -> Vec3.t
(** Geodetic point to local metres (x north, y east, z up relative to the
    home altitude). *)

val of_local : frame -> Vec3.t -> geodetic
(** Inverse of [to_local]. *)

val lat_to_e7 : float -> int
val lon_to_e7 : float -> int
val e7_to_deg : int -> float
(** Wire scaling used by position messages (degrees times 1e7). *)

val ground_distance_m : geodetic -> geodetic -> float
(** Horizontal great-circle distance (small-angle approximation). *)
