(* All fields are floats so the record stays flat and the per-step stores
   into [integral]/[last_error] are unboxed; [has_last] is a 0.0/1.0 flag
   for the same reason (a bool field would force the boxed mixed-record
   layout). *)
type t = {
  kp : float;
  ki : float;
  kd : float;
  i_limit : float;
  out_limit : float;
  mutable integral : float;
  mutable last_error : float;
  mutable has_last : float; (* 0.0 = no previous error recorded *)
}

let create ?(kp = 0.0) ?(ki = 0.0) ?(kd = 0.0) ?(i_limit = infinity)
    ?(out_limit = infinity) () =
  { kp; ki; kd; i_limit; out_limit; integral = 0.0; last_error = 0.0;
    has_last = 0.0 }

let clamp limit v = Float.max (-.limit) (Float.min limit v)

let finish t ~error ~derivative ~dt =
  t.integral <- clamp t.i_limit (t.integral +. (error *. dt));
  let out = (t.kp *. error) +. (t.ki *. t.integral) +. (t.kd *. derivative) in
  clamp t.out_limit out

let update t ~error ~dt =
  let derivative =
    if t.has_last <> 0.0 && dt > 0.0 then (error -. t.last_error) /. dt
    else 0.0
  in
  t.last_error <- error;
  t.has_last <- 1.0;
  finish t ~error ~derivative ~dt

let update_with_rate t ~error ~rate ~dt =
  t.last_error <- error;
  t.has_last <- 1.0;
  finish t ~error ~derivative:(-.rate) ~dt

let reset t =
  t.integral <- 0.0;
  t.last_error <- 0.0;
  t.has_last <- 0.0

(* Only the controller's state: the gains and limits are the creator's. *)
let encode b t =
  let open Avis_util.Codec in
  w_f64 b t.integral;
  w_f64 b t.last_error;
  w_f64 b t.has_last

let decode_into t r =
  let open Avis_util.Codec in
  t.integral <- r_f64 r;
  t.last_error <- r_f64 r;
  t.has_last <- r_f64 r
