(* The calibration yardstick: a fixed, allocating float kernel shaped like
   a pure-vector rigid-body step (immutable vector and quaternion records,
   a fresh record per operation). It deliberately shares no code with the
   program, so no change to the program can move the ruler it is measured
   with. One slice is [steps_per_slice] steps, about 1.5 ms on a 2-vCPU
   x86-64 VM; timings are rescaled by [nominal_slice_ms] over the median
   slice measured around them. *)

type v = { x : float; y : float; z : float }
type q = { w : float; i : float; j : float; k : float }
type body = { pos : v; vel : v; att : q; rate : v }

let v x y z = { x; y; z }
let add a b = v (a.x +. b.x) (a.y +. b.y) (a.z +. b.z)
let sub a b = v (a.x -. b.x) (a.y -. b.y) (a.z -. b.z)
let scale s a = v (s *. a.x) (s *. a.y) (s *. a.z)

let cross a b =
  v ((a.y *. b.z) -. (a.z *. b.y)) ((a.z *. b.x) -. (a.x *. b.z))
    ((a.x *. b.y) -. (a.y *. b.x))

let qmul a b =
  {
    w = (a.w *. b.w) -. (a.i *. b.i) -. (a.j *. b.j) -. (a.k *. b.k);
    i = (a.w *. b.i) +. (a.i *. b.w) +. (a.j *. b.k) -. (a.k *. b.j);
    j = (a.w *. b.j) -. (a.i *. b.k) +. (a.j *. b.w) +. (a.k *. b.i);
    k = (a.w *. b.k) +. (a.i *. b.j) -. (a.j *. b.i) +. (a.k *. b.w);
  }

let normalize a =
  let n = sqrt ((a.w *. a.w) +. (a.i *. a.i) +. (a.j *. a.j) +. (a.k *. a.k)) in
  { w = a.w /. n; i = a.i /. n; j = a.j /. n; k = a.k /. n }

let rotate a p =
  let r = qmul (qmul a { w = 0.0; i = p.x; j = p.y; k = p.z })
      { w = a.w; i = -.a.i; j = -.a.j; k = -.a.k } in
  v r.i r.j r.k

let integrate a omega dt =
  let h = dt /. 2.0 in
  let d = qmul a { w = 0.0; i = omega.x; j = omega.y; k = omega.z } in
  normalize
    { w = a.w +. (h *. d.w); i = a.i +. (h *. d.i); j = a.j +. (h *. d.j);
      k = a.k +. (h *. d.k) }

let inertia = v 0.011 0.015 0.021
let mass = 1.5
let dt = 0.0025

(* A hovering body under a slowly varying thrust and a drag wind: enough
   float work, division and square roots per step, and six to ten small
   allocations, like the reference physics step. *)
let step t b =
  let thrust = v 0.0 0.0 (mass *. 9.81 *. (1.0 +. (0.05 *. sin t))) in
  let force =
    List.fold_left add (v 0.0 0.0 0.0)
      [ rotate b.att thrust; v 0.0 0.0 (-.mass *. 9.81);
        scale (-0.3) (sub b.vel (v 0.4 (-0.2) 0.0)) ]
  in
  let torque = v (0.002 *. cos t) (0.001 *. sin t) (-0.0005) in
  let gyro = cross b.rate (v (inertia.x *. b.rate.x) (inertia.y *. b.rate.y)
                             (inertia.z *. b.rate.z)) in
  let alpha =
    v ((torque.x -. gyro.x) /. inertia.x) ((torque.y -. gyro.y) /. inertia.y)
      ((torque.z -. gyro.z) /. inertia.z)
  in
  let vel = add b.vel (scale (dt /. mass) force) in
  let rate = scale 0.999 (add b.rate (scale dt alpha)) in
  { pos = add b.pos (scale dt vel); vel; att = integrate b.att rate dt; rate }

let steps_per_slice = 10_000
let nominal_slice_ms = 1.5

let initial =
  { pos = v 0.0 0.0 10.0; vel = v 0.0 0.0 0.0;
    att = { w = 1.0; i = 0.0; j = 0.0; k = 0.0 }; rate = v 0.1 (-0.05) 0.02 }

(* Kept live so the kernel's result is observable and never elided. *)
let sink = ref 0.0

let now_ns () = Monotonic_clock.now ()

(* Run one slice; returns its duration in nanoseconds. *)
let slice () =
  let t0 = now_ns () in
  let b = ref initial in
  for n = 1 to steps_per_slice do
    b := step (float_of_int n *. dt) !b
  done;
  sink := !sink +. !b.pos.z;
  Int64.sub (now_ns ()) t0
