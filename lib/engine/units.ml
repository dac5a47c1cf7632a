let bits_of_bytes b = 8.0 *. b
let bits_of_kilobytes kb = 8.0 *. 1024.0 *. kb
let mbps x = x *. 1.0e6
let kbps x = x *. 1.0e3
let ms x = x *. 1.0e-3
let us x = x *. 1.0e-6
let seconds_to_ms x = x *. 1.0e3

let transmission_time ~bits ~rate =
  if rate <= 0.0 then invalid_arg "Units.transmission_time: rate must be positive";
  bits /. rate

let pp_time fmt t =
  let a = Float.abs t in
  if a >= 1.0 then Format.fprintf fmt "%.6g s" t
  else if a >= 1.0e-3 then Format.fprintf fmt "%.6g ms" (t *. 1.0e3)
  else Format.fprintf fmt "%.6g us" (t *. 1.0e6)

let pp_rate fmt r =
  let a = Float.abs r in
  if a >= 1.0e9 then Format.fprintf fmt "%.6g Gbps" (r /. 1.0e9)
  else if a >= 1.0e6 then Format.fprintf fmt "%.6g Mbps" (r /. 1.0e6)
  else if a >= 1.0e3 then Format.fprintf fmt "%.6g Kbps" (r /. 1.0e3)
  else Format.fprintf fmt "%.6g bps" r
