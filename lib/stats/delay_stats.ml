type t = {
  mutable samples : (float * float) list; (* reversed *)
  mutable count : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable max_d : float;
  mutable min_d : float;
}

let create () =
  { samples = []; count = 0; sum = 0.0; sum_sq = 0.0; max_d = 0.0; min_d = infinity }

let record t ~time ~delay =
  t.samples <- (time, delay) :: t.samples;
  t.count <- t.count + 1;
  t.sum <- t.sum +. delay;
  t.sum_sq <- t.sum_sq +. (delay *. delay);
  if delay > t.max_d then t.max_d <- delay;
  if delay < t.min_d then t.min_d <- delay

let count t = t.count
let max_delay t = t.max_d
let min_delay t = if t.count = 0 then 0.0 else t.min_d
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

let stddev t =
  if t.count < 2 then 0.0
  else
    let n = float_of_int t.count in
    let var = (t.sum_sq /. n) -. ((t.sum /. n) ** 2.0) in
    sqrt (Float.max 0.0 var)

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Delay_stats.percentile: p outside [0,100]";
  if t.count = 0 then invalid_arg "Delay_stats.percentile: no samples";
  let sorted =
    List.sort compare (List.rev_map snd t.samples) |> Array.of_list
  in
  let rank =
    int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) - 1
  in
  sorted.(max 0 (min (t.count - 1) rank))

let samples t = List.rev t.samples

let report ?(name = "delays") t =
  Report.of_points ~name ~x:"time" ~y:"delay" (samples t)

let series_max_over_windows t ~window =
  if window <= 0.0 then invalid_arg "Delay_stats: window must be positive";
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (time, delay) ->
      let bin = int_of_float (time /. window) in
      let cur = Option.value (Hashtbl.find_opt tbl bin) ~default:neg_infinity in
      if delay > cur then Hashtbl.replace tbl bin delay)
    t.samples;
  Hashtbl.fold (fun bin d acc -> ((float_of_int bin *. window), d) :: acc) tbl []
  |> List.sort compare
