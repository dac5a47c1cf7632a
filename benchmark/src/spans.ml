(* Span recorder for traced runs.

   Spans are opened and closed by the benchmark's own code around its
   calls into each layer; nothing inside lib/ is instrumented. A span has
   a name id, a start, an end and the id of the span that was open when
   it started. The first [capacity] spans (by start order) are kept in
   preallocated arrays and written out at exit; the per-name aggregates
   (count, total time, self time) keep counting after that buffer fills.

   Self time is the span's duration minus the time covered by its direct
   children. Spans nest strictly (one domain, stack discipline), so the
   covered part is the sum of the children's durations. *)

let round = 0
let engine_run = 1
let hook_depart = 2
let core_inject = 3
let load_binary = 4
let replay = 5

let names =
  [| "round"; "engine.run"; "hook.depart"; "core.inject"; "traffic.load_binary";
     "traffic.replay" |]

let max_depth = 16

type t = {
  capacity : int;
  s_name : int array;
  s_start : int array;
  s_end : int array;
  s_parent : int array;
  mutable next_id : int;
  st_id : int array;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  count : int array;
  total : int array;
  self : int array;
}

let create ~capacity =
  let n = Array.length names in
  {
    capacity;
    s_name = Array.make capacity 0;
    s_start = Array.make capacity 0;
    s_end = Array.make capacity (-1);
    s_parent = Array.make capacity (-1);
    next_id = 0;
    st_id = Array.make max_depth 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    count = Array.make n 0;
    total = Array.make n 0;
    self = Array.make n 0;
  }

let enter t name =
  let d = t.depth in
  t.st_id.(d) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.st_name.(d) <- name;
  t.st_child.(d) <- 0;
  t.depth <- d + 1;
  (* the clock is read last so the span excludes its own bookkeeping *)
  t.st_start.(d) <- Util.now_ns ()

let leave t =
  let stop = Util.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let name = t.st_name.(d) and start = t.st_start.(d) in
  let dur = stop - start in
  t.count.(name) <- t.count.(name) + 1;
  t.total.(name) <- t.total.(name) + dur;
  t.self.(name) <- t.self.(name) + dur - t.st_child.(d);
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let id = t.st_id.(d) in
  if id < t.capacity then begin
    t.s_name.(id) <- name;
    t.s_start.(id) <- start;
    t.s_end.(id) <- stop;
    t.s_parent.(id) <- (if d > 0 then t.st_id.(d - 1) else -1)
  end

let total_ns t name = t.total.(name)
let self_ns t name = t.self.(name)

(* One JSON object per line: a provenance header, every kept span, then
   one aggregate line per span name. *)
let write t ~path ~provenance =
  let oc = open_out path in
  Printf.fprintf oc "{\"provenance\":%s}\n" provenance;
  let kept = min t.capacity t.next_id in
  for id = 0 to kept - 1 do
    if t.s_end.(id) >= 0 then
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n" id
        names.(t.s_name.(id)) t.s_start.(id) t.s_end.(id) t.s_parent.(id)
  done;
  Array.iteri
    (fun i name ->
      Printf.fprintf oc
        "{\"aggregate\":\"%s\",\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}\n" name
        t.count.(i) t.total.(i) t.self.(i))
    names;
  Printf.fprintf oc "{\"spans_total\":%d,\"spans_kept\":%d}\n" t.next_id kept;
  close_out oc
