type t = { x : float; y : float; z : float }

let zero = { x = 0.0; y = 0.0; z = 0.0 }
let[@inline] make x y z = { x; y; z }
let unit_x = { x = 1.0; y = 0.0; z = 0.0 }
let unit_y = { x = 0.0; y = 1.0; z = 0.0 }
let unit_z = { x = 0.0; y = 0.0; z = 1.0 }

let[@inline] add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }
let[@inline] sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }
let[@inline] neg a = { x = -.a.x; y = -.a.y; z = -.a.z }
let[@inline] scale s a = { x = s *. a.x; y = s *. a.y; z = s *. a.z }
let[@inline] dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)

let[@inline] cross a b =
  {
    x = (a.y *. b.z) -. (a.z *. b.y);
    y = (a.z *. b.x) -. (a.x *. b.z);
    z = (a.x *. b.y) -. (a.y *. b.x);
  }

let[@inline] norm_sq a = dot a a
let[@inline] norm a = sqrt (norm_sq a)
let[@inline] dist a b = norm (sub a b)

let normalize a =
  let n = norm a in
  if n = 0.0 then zero else scale (1.0 /. n) a

let lerp a b s = add a (scale s (sub b a))
let[@inline] horizontal a = { a with z = 0.0 }

let clamp_norm limit v =
  if limit < 0.0 then invalid_arg "Vec3.clamp_norm: negative limit";
  let n = norm v in
  if n <= limit || n = 0.0 then v else scale (limit /. n) v

let[@inline] is_zero a = a.x = 0.0 && a.y = 0.0 && a.z = 0.0

let is_finite a =
  Float.is_finite a.x && Float.is_finite a.y && Float.is_finite a.z

let equal_eps ?(eps = 1e-9) a b =
  Float.abs (a.x -. b.x) <= eps
  && Float.abs (a.y -. b.y) <= eps
  && Float.abs (a.z -. b.z) <= eps

let encode b (a : t) =
  Avis_util.Codec.w_f64 b a.x;
  Avis_util.Codec.w_f64 b a.y;
  Avis_util.Codec.w_f64 b a.z

let decode r =
  let x = Avis_util.Codec.r_f64 r in
  let y = Avis_util.Codec.r_f64 r in
  let z = Avis_util.Codec.r_f64 r in
  { x; y; z }

let pp ppf a = Format.fprintf ppf "(%.4f, %.4f, %.4f)" a.x a.y a.z
let to_string a = Format.asprintf "%a" pp a

(* Destination-passing kernels over a mutable all-float record (stored
   flat, so component writes never box). Every operation reproduces its
   pure counterpart's arithmetic expression for expression, which is what
   the bit-identity property tests pin down. Component-wise operations are
   alias-safe ([dst] may be [a] or [b]); [cross]/[rotate]-style kernels
   read everything into locals before the first store. *)
module Mut = struct
  type vec = { mutable x : float; mutable y : float; mutable z : float }

  let create () = { x = 0.0; y = 0.0; z = 0.0 }

  let[@inline] set v ~x ~y ~z =
    v.x <- x;
    v.y <- y;
    v.z <- z

  let[@inline] of_t (a : t) = { x = a.x; y = a.y; z = a.z }
  let[@inline] to_t v : t = { x = v.x; y = v.y; z = v.z }

  let[@inline] blit_t (a : t) dst =
    dst.x <- a.x;
    dst.y <- a.y;
    dst.z <- a.z

  let[@inline] copy_into src dst =
    dst.x <- src.x;
    dst.y <- src.y;
    dst.z <- src.z

  let copy v = { x = v.x; y = v.y; z = v.z }

  let[@inline] add dst a b =
    dst.x <- a.x +. b.x;
    dst.y <- a.y +. b.y;
    dst.z <- a.z +. b.z

  let[@inline] sub dst a b =
    dst.x <- a.x -. b.x;
    dst.y <- a.y -. b.y;
    dst.z <- a.z -. b.z

  let[@inline] neg dst a =
    dst.x <- -.a.x;
    dst.y <- -.a.y;
    dst.z <- -.a.z

  let[@inline] scale dst s a =
    dst.x <- s *. a.x;
    dst.y <- s *. a.y;
    dst.z <- s *. a.z

  let[@inline] dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)

  let[@inline] cross dst a b =
    let x = (a.y *. b.z) -. (a.z *. b.y) in
    let y = (a.z *. b.x) -. (a.x *. b.z) in
    let z = (a.x *. b.y) -. (a.y *. b.x) in
    dst.x <- x;
    dst.y <- y;
    dst.z <- z

  let[@inline] norm_sq a = dot a a
  let[@inline] norm a = sqrt (norm_sq a)

  let normalize dst a =
    let n = norm a in
    if n = 0.0 then set dst ~x:0.0 ~y:0.0 ~z:0.0 else scale dst (1.0 /. n) a

  let[@inline] horizontal dst a =
    dst.x <- a.x;
    dst.y <- a.y;
    dst.z <- 0.0

  let clamp_norm dst limit a =
    if limit < 0.0 then invalid_arg "Vec3.clamp_norm: negative limit";
    let n = norm a in
    if n <= limit || n = 0.0 then copy_into a dst
    else scale dst (limit /. n) a
end
