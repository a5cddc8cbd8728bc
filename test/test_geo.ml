(* Tests for avis_geo: vector algebra, attitude quaternions and geodesy.
   The quaternion laws are property-tested — the body-frame integration
   convention in particular, since an inconsistency there only shows up
   once the vehicle yaws away from north. *)

open Avis_geo

let vec = Alcotest.testable Vec3.pp (Vec3.equal_eps ~eps:1e-6)

let rng = QCheck.Gen.float_range (-100.0) 100.0

let arb_vec =
  QCheck.make
    ~print:(fun v -> Vec3.to_string v)
    QCheck.Gen.(map3 Vec3.make rng rng rng)

let arb_angle = QCheck.float_range (-3.0) 3.0

let arb_unit_quat =
  QCheck.make
    ~print:(fun q -> Format.asprintf "%a" Quat.pp q)
    QCheck.Gen.(
      map3
        (fun roll pitch yaw -> Quat.of_euler ~roll ~pitch ~yaw)
        (float_range (-1.4) 1.4) (float_range (-1.4) 1.4)
        (float_range (-3.1) 3.1))

(* Vec3 *)

let test_vec_basics () =
  Alcotest.check vec "add" (Vec3.make 3.0 5.0 7.0)
    (Vec3.add (Vec3.make 1.0 2.0 3.0) (Vec3.make 2.0 3.0 4.0));
  Alcotest.check vec "sub" Vec3.zero (Vec3.sub Vec3.unit_x Vec3.unit_x);
  Alcotest.(check (float 1e-9)) "dot orthogonal" 0.0 (Vec3.dot Vec3.unit_x Vec3.unit_y);
  Alcotest.check vec "cross" Vec3.unit_z (Vec3.cross Vec3.unit_x Vec3.unit_y)

let prop_norm_scaling =
  QCheck.Test.make ~name:"norm scales linearly" ~count:200
    (QCheck.pair arb_vec (QCheck.float_range 0.0 10.0))
    (fun (v, s) ->
      Float.abs (Vec3.norm (Vec3.scale s v) -. (s *. Vec3.norm v)) < 1e-6)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:200
    (QCheck.pair arb_vec arb_vec)
    (fun (a, b) -> Vec3.norm (Vec3.add a b) <= Vec3.norm a +. Vec3.norm b +. 1e-9)

let prop_cross_orthogonal =
  QCheck.Test.make ~name:"cross product orthogonal to operands" ~count:200
    (QCheck.pair arb_vec arb_vec)
    (fun (a, b) ->
      let c = Vec3.cross a b in
      Float.abs (Vec3.dot c a) < 1e-3 && Float.abs (Vec3.dot c b) < 1e-3)

let prop_normalize_unit =
  QCheck.Test.make ~name:"normalize yields unit or zero" ~count:200 arb_vec
    (fun v ->
      let n = Vec3.norm (Vec3.normalize v) in
      n = 0.0 || Float.abs (n -. 1.0) < 1e-9)

let test_clamp_norm () =
  let v = Vec3.make 3.0 4.0 0.0 in
  Alcotest.(check (float 1e-9)) "clamped" 2.0 (Vec3.norm (Vec3.clamp_norm 2.0 v));
  Alcotest.check vec "unchanged" v (Vec3.clamp_norm 10.0 v);
  Alcotest.check_raises "negative limit"
    (Invalid_argument "Vec3.clamp_norm: negative limit") (fun () ->
      ignore (Vec3.clamp_norm (-1.0) v))

let test_lerp () =
  Alcotest.check vec "midpoint" (Vec3.make 0.5 0.5 0.5)
    (Vec3.lerp Vec3.zero (Vec3.make 1.0 1.0 1.0) 0.5)

(* Quat *)

let prop_euler_roundtrip =
  QCheck.Test.make ~name:"euler -> quat -> euler roundtrip" ~count:300
    (QCheck.triple arb_angle (QCheck.float_range (-1.4) 1.4) arb_angle)
    (fun (roll, pitch, yaw) ->
      let q = Quat.of_euler ~roll ~pitch ~yaw in
      let r', p', y' = Quat.to_euler q in
      Float.abs (r' -. roll) < 1e-6
      && Float.abs (p' -. pitch) < 1e-6
      && Float.abs (y' -. yaw) < 1e-6)

let prop_rotate_preserves_norm =
  QCheck.Test.make ~name:"rotation preserves length" ~count:300
    (QCheck.pair arb_unit_quat arb_vec)
    (fun (q, v) -> Float.abs (Vec3.norm (Quat.rotate q v) -. Vec3.norm v) < 1e-6)

let prop_rotate_inverse =
  QCheck.Test.make ~name:"rotate_inv undoes rotate" ~count:300
    (QCheck.pair arb_unit_quat arb_vec)
    (fun (q, v) -> Vec3.equal_eps ~eps:1e-6 (Quat.rotate_inv q (Quat.rotate q v)) v)

let prop_mul_composes =
  QCheck.Test.make ~name:"mul composes rotations" ~count:300
    (QCheck.triple arb_unit_quat arb_unit_quat arb_vec)
    (fun (a, b, v) ->
      Vec3.equal_eps ~eps:1e-5
        (Quat.rotate (Quat.mul a b) v)
        (Quat.rotate a (Quat.rotate b v)))

(* The regression behind a real bug found during development: integrating
   body-frame rates must agree with composing a small body-frame rotation,
   at any yaw. *)
let prop_integrate_body_frame =
  QCheck.Test.make ~name:"integrate uses body-frame rates" ~count:200
    (QCheck.pair arb_unit_quat arb_vec)
    (fun (q, omega) ->
      let omega = Vec3.clamp_norm 2.0 omega in
      let dt = 0.001 in
      let integrated = Quat.integrate q omega dt in
      let small = Quat.of_axis_angle omega (Vec3.norm omega *. dt) in
      let composed = Quat.mul q small in
      Quat.angle_between integrated composed < 1e-4)

let test_integrate_roll_sign () =
  (* At yaw -1.9 (the failing case in development), a negative body roll
     rate must decrease the Euler roll. *)
  let q = Quat.of_euler ~roll:0.0 ~pitch:0.4 ~yaw:(-1.9) in
  let q' = ref q in
  for _ = 1 to 100 do
    q' := Quat.integrate !q' (Vec3.make (-1.0) 0.0 0.0) 0.004
  done;
  let roll, _, _ = Quat.to_euler !q' in
  Alcotest.(check bool) "roll decreased" true (roll < -0.3)

let test_tilt () =
  Alcotest.(check (float 1e-9)) "level" 0.0 (Quat.tilt Quat.identity);
  let tilted = Quat.of_euler ~roll:0.5 ~pitch:0.0 ~yaw:1.0 in
  Alcotest.(check (float 1e-6)) "roll tilt" 0.5 (Quat.tilt tilted)

let test_slerp_endpoints () =
  let a = Quat.of_euler ~roll:0.0 ~pitch:0.0 ~yaw:0.0 in
  let b = Quat.of_euler ~roll:0.0 ~pitch:0.0 ~yaw:1.0 in
  Alcotest.(check (float 1e-6)) "start" 0.0 (Quat.angle_between a (Quat.slerp a b 0.0));
  Alcotest.(check (float 1e-6)) "end" 0.0 (Quat.angle_between b (Quat.slerp a b 1.0));
  let mid = Quat.slerp a b 0.5 in
  let _, _, yaw = Quat.to_euler mid in
  Alcotest.(check (float 1e-6)) "midpoint yaw" 0.5 yaw

let test_normalize_zero () =
  let z = Quat.make ~w:0.0 ~x:0.0 ~y:0.0 ~z:0.0 in
  Alcotest.(check (float 1e-9)) "identity fallback" 1.0 (Quat.normalize z).Quat.w

(* Mut kernels: the destination-passing variants used by the physics hot
   loop must match the pure operations bit for bit, not merely within an
   epsilon — campaign determinism (cached vs cold runs, parallel vs
   sequential matrices) depends on the kernels being interchangeable. *)

let bits = Int64.bits_of_float

let same_vec (v : Vec3.t) (m : Vec3.Mut.vec) =
  bits v.Vec3.x = bits m.Vec3.Mut.x
  && bits v.Vec3.y = bits m.Vec3.Mut.y
  && bits v.Vec3.z = bits m.Vec3.Mut.z

let same_quat (q : Quat.t) (m : Quat.Mut.quat) =
  bits q.Quat.w = bits m.Quat.Mut.w
  && bits q.Quat.x = bits m.Quat.Mut.x
  && bits q.Quat.y = bits m.Quat.Mut.y
  && bits q.Quat.z = bits m.Quat.Mut.z

let prop_mut_vec_bit_identical =
  QCheck.Test.make ~name:"Mut vector kernels bit-identical to pure"
    ~count:500
    (QCheck.triple arb_vec arb_vec (QCheck.float_range (-10.0) 10.0))
    (fun (a, b, s) ->
      let ma = Vec3.Mut.of_t a and mb = Vec3.Mut.of_t b in
      let dst = Vec3.Mut.create () in
      let into pure op =
        op ();
        same_vec pure dst
      in
      into (Vec3.add a b) (fun () -> Vec3.Mut.add dst ma mb)
      && into (Vec3.sub a b) (fun () -> Vec3.Mut.sub dst ma mb)
      && into (Vec3.cross a b) (fun () -> Vec3.Mut.cross dst ma mb)
      && into (Vec3.scale s a) (fun () -> Vec3.Mut.scale dst s ma)
      && into (Vec3.neg a) (fun () -> Vec3.Mut.neg dst ma)
      && into (Vec3.horizontal a) (fun () -> Vec3.Mut.horizontal dst ma)
      && into (Vec3.normalize a) (fun () -> Vec3.Mut.normalize dst ma)
      && into (Vec3.clamp_norm (Float.abs s) a) (fun () ->
             Vec3.Mut.clamp_norm dst (Float.abs s) ma)
      && bits (Vec3.dot a b) = bits (Vec3.Mut.dot ma mb)
      && bits (Vec3.norm a) = bits (Vec3.Mut.norm ma)
      && bits (Vec3.norm_sq a) = bits (Vec3.Mut.norm_sq ma)
      (* The inputs must never be disturbed. *)
      && same_vec a ma
      && same_vec b mb)

(* Aliasing: the kernels advertise [dst] may be an operand. *)
let prop_mut_vec_alias_safe =
  QCheck.Test.make ~name:"Mut kernels alias-safe (dst = operand)" ~count:200
    (QCheck.pair arb_vec arb_vec)
    (fun (a, b) ->
      let d1 = Vec3.Mut.of_t a and mb = Vec3.Mut.of_t b in
      Vec3.Mut.cross d1 d1 mb;
      let d2 = Vec3.Mut.of_t a in
      Vec3.Mut.normalize d2 d2;
      same_vec (Vec3.cross a b) d1 && same_vec (Vec3.normalize a) d2)

let test_mut_vec_edges () =
  (* normalize of the zero vector stays zero in both worlds. *)
  let z = Vec3.Mut.create () in
  Vec3.Mut.normalize z z;
  Alcotest.(check bool) "normalize zero = zero" true
    (same_vec (Vec3.normalize Vec3.zero) z);
  (* clamp_norm at the boundary and below it. *)
  let v = Vec3.make 3.0 4.0 0.0 in
  let m = Vec3.Mut.of_t v in
  let dst = Vec3.Mut.create () in
  Vec3.Mut.clamp_norm dst 5.0 m;
  Alcotest.(check bool) "limit = norm leaves v" true
    (same_vec (Vec3.clamp_norm 5.0 v) dst);
  Vec3.Mut.clamp_norm dst 0.0 m;
  Alcotest.(check bool) "limit 0 matches pure" true
    (same_vec (Vec3.clamp_norm 0.0 v) dst);
  (* A negative limit is invalid in both, with the same message. *)
  Alcotest.check_raises "negative limit (Mut)"
    (Invalid_argument "Vec3.clamp_norm: negative limit") (fun () ->
      Vec3.Mut.clamp_norm dst (-1.0) m)

let prop_mut_quat_bit_identical =
  QCheck.Test.make ~name:"Mut quaternion kernels bit-identical to pure"
    ~count:500
    (QCheck.triple arb_unit_quat arb_vec (QCheck.float_range 0.0 0.05))
    (fun (q, v, dt) ->
      let mq = Quat.Mut.of_t q and mv = Vec3.Mut.of_t v in
      let dst = Vec3.Mut.create () in
      Quat.Mut.rotate dst mq mv;
      let rot_ok = same_vec (Quat.rotate q v) dst in
      Quat.Mut.rotate_inv dst mq mv;
      let inv_ok = same_vec (Quat.rotate_inv q v) dst in
      (* rotate with dst aliasing the input vector. *)
      let aliased = Vec3.Mut.of_t v in
      Quat.Mut.rotate aliased mq aliased;
      let alias_ok = same_vec (Quat.rotate q v) aliased in
      let tilt_ok = bits (Quat.tilt q) = bits (Quat.Mut.tilt mq) in
      let norm_ok = bits (Quat.norm q) = bits (Quat.Mut.norm mq) in
      Quat.Mut.integrate mq mv dt;
      let int_ok = same_quat (Quat.integrate q v dt) mq in
      rot_ok && inv_ok && alias_ok && tilt_ok && norm_ok && int_ok)

(* Components drawn to hit the compare's edges: signed zeros, NaN,
   infinities and the smallest subnormal, beside ordinary values. *)
let edge_float =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
                 Float.min_float; 4.9e-324; -4.9e-324 ];
        float_range (-1.0) 1.0;
      ])

let arb_edge_vec =
  QCheck.make ~print:(fun v -> Printf.sprintf "(%h, %h, %h)" v.Vec3.x v.Vec3.y v.Vec3.z)
    QCheck.Gen.(map3 Vec3.make edge_float edge_float edge_float)

let prop_is_zero_matches_compare =
  QCheck.Test.make ~name:"is_zero agrees with ( = ) zero" ~count:1000
    arb_edge_vec (fun v ->
      Vec3.is_zero v = (v = Vec3.zero) && not (Vec3.is_zero v) = (v <> Vec3.zero))

let prop_yaw_matches_to_euler =
  QCheck.Test.make ~name:"yaw bit-identical to to_euler's" ~count:1000
    (QCheck.make
       ~print:(fun q -> Format.asprintf "%a" Quat.pp q)
       QCheck.Gen.(
         oneof
           [
             map3 (fun roll pitch yaw -> Quat.of_euler ~roll ~pitch ~yaw)
               (float_range (-3.2) 3.2) (float_range (-1.6) 1.6)
               (float_range (-3.2) 3.2);
             map (fun (w, x, y, z) -> Quat.make ~w ~x ~y ~z)
               (quad edge_float edge_float edge_float edge_float);
           ]))
    (fun q ->
      let _, _, yaw = Quat.to_euler q in
      bits (Quat.yaw q) = bits yaw)

(* The tilt against the rotation it expands, on any quaternion, signed
   zeros and NaN included: the clamp must keep [Stdlib.min]/[max]'s
   results. *)
let prop_tilt_matches_rotation =
  let reference q =
    let body_up = Quat.rotate q Vec3.unit_z in
    acos (Stdlib.max (-1.0) (Stdlib.min 1.0 (Vec3.dot body_up Vec3.unit_z)))
  in
  QCheck.Test.make ~name:"tilt bit-identical to the rotation" ~count:1000
    (QCheck.make
       ~print:(fun q -> Format.asprintf "%a" Quat.pp q)
       QCheck.Gen.(
         oneof
           [
             map (fun (w, x, y, z) -> Quat.make ~w ~x ~y ~z)
               (quad edge_float edge_float edge_float edge_float);
             map (fun (w, x, y, z) -> Quat.make ~w ~x ~y ~z)
               (quad (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)
                  (float_range (-2.0) 2.0) (float_range (-2.0) 2.0));
           ]))
    (fun q ->
      bits (Quat.tilt q) = bits (reference q)
      && bits (Quat.Mut.tilt (Quat.Mut.of_t q)) = bits (reference q))

let test_mut_quat_normalize_zero () =
  let z = Quat.Mut.of_t (Quat.make ~w:0.0 ~x:0.0 ~y:0.0 ~z:0.0) in
  Quat.Mut.normalize z;
  Alcotest.(check bool) "identity fallback matches pure" true
    (same_quat (Quat.normalize (Quat.make ~w:0.0 ~x:0.0 ~y:0.0 ~z:0.0)) z)

(* Geodesy *)

let test_geodesy_roundtrip () =
  let home = { Geodesy.lat = 47.397742; lon = 8.545594; alt = 0.0 } in
  let frame = Geodesy.frame_at home in
  let p = Vec3.make 123.0 (-45.0) 20.0 in
  let back = Geodesy.to_local frame (Geodesy.of_local frame p) in
  Alcotest.check vec "roundtrip" p back

let prop_geodesy_roundtrip =
  QCheck.Test.make ~name:"local -> geodetic -> local" ~count:200
    (QCheck.triple (QCheck.float_range (-500.0) 500.0)
       (QCheck.float_range (-500.0) 500.0) (QCheck.float_range 0.0 100.0))
    (fun (x, y, z) ->
      let frame =
        Geodesy.frame_at { Geodesy.lat = 47.4; lon = 8.5; alt = 0.0 }
      in
      let p = Vec3.make x y z in
      Vec3.equal_eps ~eps:1e-4 (Geodesy.to_local frame (Geodesy.of_local frame p)) p)

let test_geodesy_scale () =
  (* One degree of latitude is about 111 km. *)
  let frame = Geodesy.frame_at { Geodesy.lat = 0.0; lon = 0.0; alt = 0.0 } in
  let north = Geodesy.to_local frame { Geodesy.lat = 1.0; lon = 0.0; alt = 0.0 } in
  Alcotest.(check bool) "~111 km" true
    (north.Vec3.x > 110_000.0 && north.Vec3.x < 112_500.0)

let test_e7 () =
  Alcotest.(check int) "encode" 473977420 (Geodesy.lat_to_e7 47.3977420);
  Alcotest.(check (float 1e-6)) "decode" 47.397742 (Geodesy.e7_to_deg 473977420)

let test_ground_distance () =
  let a = { Geodesy.lat = 47.4; lon = 8.5; alt = 0.0 } in
  let frame = Geodesy.frame_at a in
  let b = Geodesy.of_local frame (Vec3.make 300.0 400.0 55.0) in
  Alcotest.(check bool) "horizontal distance" true
    (Float.abs (Geodesy.ground_distance_m a b -. 500.0) < 1.0)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "avis_geo"
    [
      ( "vec3",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "clamp_norm" `Quick test_clamp_norm;
          Alcotest.test_case "lerp" `Quick test_lerp;
          q prop_norm_scaling;
          q prop_triangle_inequality;
          q prop_cross_orthogonal;
          q prop_normalize_unit;
        ] );
      ( "quat",
        [
          Alcotest.test_case "integrate roll sign" `Quick test_integrate_roll_sign;
          Alcotest.test_case "tilt" `Quick test_tilt;
          Alcotest.test_case "slerp endpoints" `Quick test_slerp_endpoints;
          Alcotest.test_case "normalize zero" `Quick test_normalize_zero;
          q prop_euler_roundtrip;
          q prop_rotate_preserves_norm;
          q prop_rotate_inverse;
          q prop_mul_composes;
          q prop_integrate_body_frame;
        ] );
      ( "mut",
        [
          Alcotest.test_case "vec edge cases" `Quick test_mut_vec_edges;
          Alcotest.test_case "quat normalize zero" `Quick
            test_mut_quat_normalize_zero;
          q prop_mut_vec_bit_identical;
          q prop_mut_vec_alias_safe;
          q prop_mut_quat_bit_identical;
          q prop_is_zero_matches_compare;
          q prop_yaw_matches_to_euler;
          q prop_tilt_matches_rotation;
        ] );
      ( "geodesy",
        [
          Alcotest.test_case "roundtrip" `Quick test_geodesy_roundtrip;
          Alcotest.test_case "scale" `Quick test_geodesy_scale;
          Alcotest.test_case "e7" `Quick test_e7;
          Alcotest.test_case "ground distance" `Quick test_ground_distance;
          q prop_geodesy_roundtrip;
        ] );
    ]
