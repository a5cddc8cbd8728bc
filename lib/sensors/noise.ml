type spec = { white_stddev : float; bias_stddev : float; drift_rate : float }

let accel = { white_stddev = 0.05; bias_stddev = 0.03; drift_rate = 0.0 }
let gyro = { white_stddev = 0.005; bias_stddev = 0.0003; drift_rate = 0.0 }
let gps_horizontal = { white_stddev = 0.6; bias_stddev = 0.3; drift_rate = 0.0 }
let gps_vertical = { white_stddev = 2.2; bias_stddev = 1.0; drift_rate = 0.0 }
let gps_velocity = { white_stddev = 0.12; bias_stddev = 0.05; drift_rate = 0.0 }
let compass = { white_stddev = 0.02; bias_stddev = 0.01; drift_rate = 0.0 }
let baro = { white_stddev = 0.12; bias_stddev = 0.25; drift_rate = 0.01 }
let battery_voltage = { white_stddev = 0.02; bias_stddev = 0.01; drift_rate = 0.0 }

type channel = {
  rng : Avis_util.Rng.t;
  spec : spec;
  bias : float;
  mutable drift : float;
}

let channel rng spec =
  let rng = Avis_util.Rng.split rng in
  let bias = Avis_util.Rng.gaussian_scaled rng ~mean:0.0 ~stddev:spec.bias_stddev in
  { rng; spec; bias; drift = 0.0 }

(* The spec is not written: it is the per-kind constant above, which the
   decoding caller passes back. *)
let encode_channel b c =
  let open Avis_util.Codec in
  w_i64 b (Avis_util.Rng.to_bits c.rng);
  w_f64 b c.bias;
  w_f64 b c.drift

let decode_channel spec r =
  let open Avis_util.Codec in
  let rng = Avis_util.Rng.of_bits (r_i64 r) in
  let bias = r_f64 r in
  let drift = r_f64 r in
  { rng; spec; bias; drift }

(* Inlined into each sensor read (see [Rng.gaussian]), so the sample is
   stored straight into the reading without a boxed return. *)
let[@inline] sample c ~dt ~truth =
  if c.spec.drift_rate > 0.0 then
    c.drift <-
      c.drift
      +. Avis_util.Rng.gaussian_scaled c.rng ~mean:0.0
           ~stddev:(c.spec.drift_rate *. sqrt dt);
  truth +. c.bias +. c.drift
  +. Avis_util.Rng.gaussian_scaled c.rng ~mean:0.0 ~stddev:c.spec.white_stddev
