(* Fixed-point virtual time: vtime is carried as an integer count of
   [ticks], 2^shift ticks per virtual-time second. All per-packet stamp
   arithmetic is then exact integer addition — the quantization happens
   ONCE per session, when its rate is converted to an integer ticks-per-bit
   increment, not once per packet. A float engine summing L/r per packet
   accumulates rounding drift that grows with the horizon; the fixed-point
   engine schedules exactly for its (quantized) rates forever, which is
   what makes week-long soaks reproducible (see DESIGN.md §13 and the
   drift soak in bench/experiments). *)

let shift = 20

let one = 1 lsl shift

(* ticks per bit for a session of [rate] bits per vtime-second; rounding
   here is the engine's single quantization point. The effective rate is
   2^shift / ipb, and rounding ipb moves it by a relative error of up to
   about rate / 2^(shift+1): 5e-4 at 1 kb/s with shift 20. Every rate
   above ~2^shift / 1.5 rounds to 1 tick/bit (above 2^(shift+1) it would
   round to 0 and is clamped), so all such sessions get one weight.
   Nothing checks for this (ROADMAP item 12). *)
let ticks_per_bit ~rate =
  if rate <= 0.0 then invalid_arg "Fixed.ticks_per_bit: rate must be positive";
  max 1 (int_of_float (Float.round (float_of_int one /. rate)))

let of_float v = int_of_float (Float.round (v *. float_of_int one))
let to_float ticks = float_of_int ticks /. float_of_int one

(* A tick count's bit pattern read as a double: [0, max_int] maps onto
   finite nonnegative doubles in the same order (see .mli). *)
let[@inline] prio ticks = Int64.float_of_bits (Int64.of_int ticks)
let[@inline] ticks_of_prio p = Int64.to_int (Int64.bits_of_float p)
