type geodetic = { lat : float; lon : float; alt : float }

type frame = { origin : geodetic; cos_lat : float }

let earth_radius_m = 6371000.0

let deg_to_rad d = d *. Float.pi /. 180.0
let rad_to_deg r = r *. 180.0 /. Float.pi

let frame_at origin = { origin; cos_lat = cos (deg_to_rad origin.lat) }

let to_local f g =
  let dlat = deg_to_rad (g.lat -. f.origin.lat) in
  let dlon = deg_to_rad (g.lon -. f.origin.lon) in
  Vec3.make (dlat *. earth_radius_m)
    (dlon *. earth_radius_m *. f.cos_lat)
    (g.alt -. f.origin.alt)

let of_local f v =
  let open Vec3 in
  {
    lat = f.origin.lat +. rad_to_deg (v.x /. earth_radius_m);
    lon = f.origin.lon +. rad_to_deg (v.y /. (earth_radius_m *. f.cos_lat));
    alt = f.origin.alt +. v.z;
  }

let lat_to_e7 deg = int_of_float (Float.round (deg *. 1e7))
let lon_to_e7 = lat_to_e7
let e7_to_deg i = float_of_int i /. 1e7

let ground_distance_m a b =
  let f = frame_at a in
  let v = to_local f { b with alt = a.alt } in
  Vec3.norm (Vec3.horizontal v)
