type t = int

let init () = 0xFFFF

let accumulate acc byte =
  let data = Char.code byte in
  let tmp = data lxor (acc land 0xFF) in
  let tmp = (tmp lxor (tmp lsl 4)) land 0xFF in
  ((acc lsr 8) lxor (tmp lsl 8) lxor (tmp lsl 3) lxor (tmp lsr 4)) land 0xFFFF

let accumulate_string acc s =
  let acc = ref acc in
  String.iter (fun c -> acc := accumulate !acc c) s;
  !acc

let value t = t

let of_string s = value (accumulate_string (init ()) s)
