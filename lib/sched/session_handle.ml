(* A session handle is a generation-tagged slot index packed into one
   immediate int: slot in the low bits, the slot's allocation generation in
   the high bits. Packing (rather than a record) keeps handles free to
   copy, store in int arrays, and compare — the same reasoning as
   Simulator's packed event ids over Engine.Event_pool. *)

type t = int

(* 31 bits of slot (2^31 sessions per policy instance is far beyond any
   arena this repo sizes) leaves 31 generation bits on 63-bit ints; the
   generation wraps harmlessly — a stale handle is only honoured if its
   slot was recycled exactly 2^31 times between uses. *)
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl slot_bits) - 1

let pack ~slot ~gen =
  if slot < 0 || slot > slot_mask then invalid_arg "Session_handle.pack: bad slot";
  slot lor ((gen land gen_mask) lsl slot_bits)

let slot h = h land slot_mask
let generation h = (h lsr slot_bits) land gen_mask
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let to_int h = h
let of_int_unsafe i = i
let pp fmt h = Format.fprintf fmt "session#%d.g%d" (slot h) (generation h)
