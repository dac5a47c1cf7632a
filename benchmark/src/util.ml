(* Clock and order statistics shared by the runner and the probes. *)

(* Monotonic nanoseconds; the external is [@@noalloc] with an unboxed
   result, so reading it on the hot path allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sorted_copy a n =
  let s = Array.sub a 0 n in
  Array.sort Float.compare s;
  s

(* Nearest-rank quantile of a sorted array. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

(* Nearest-rank quantile of the first [n] entries of [a]. *)
let quantile a n q = quantile_sorted (sorted_copy a n) q

let median a n = quantile a n 0.5

let median_list l =
  let a = Array.of_list l in
  median a (Array.length a)
