(* Layer probes: tight loops over one layer's public calls, sized from
   the workload (its widest node, leaf count, pending-event count or
   trace). Each reports the median of several batches. They run in their
   own process, outside every timed window of the end-to-end run. *)

module Pool = Net.Packet_pool
module Sim = Engine.Simulator

let batches = 5

let ns_per_iter ~iters f =
  for _ = 1 to min iters 10_000 do
    f ()
  done;
  Util.median_list
    (List.init batches (fun _ ->
         let t0 = Util.now_ns () in
         for _ = 1 to iters do
           f ()
         done;
         float_of_int (Util.now_ns () - t0) /. float_of_int iters))

(* One WF2Q+ head service on a heap of [size] keys: pop the minimum and
   put the key back with its finish stamp advanced by 1/weight. *)
let heap4 ~size ~iters =
  let module H = Prioq.Indexed_heap4 in
  let rng = Engine.Rng.create 1L in
  let h = H.create size in
  let step = Array.init size (fun _ -> 1.0 +. Engine.Rng.float rng 15.0) in
  for k = 0 to size - 1 do
    H.add h ~key:k ~prio:(Engine.Rng.float rng 1.0)
  done;
  ns_per_iter ~iters (fun () ->
      let k = H.min_key_unsafe h and p = H.min_prio_unsafe h in
      H.drop_min h;
      H.add h ~key:k ~prio:(p +. (1.0 /. step.(k))))

let wf2q ~size ~iters =
  let _, cycle = Bench_kit.Perf.loaded_policy_with Hpfq.Disciplines.wf2q_plus size in
  ns_per_iter ~iters cycle

(* [queues] leaf FIFOs with a standing backlog of two; each step brings
   one packet into a queue and sends that queue's head out. *)
let pool_fifo ~queues ~iters =
  let pool = Pool.create () in
  let qs = Array.init queues (fun _ -> Net.Fifo.create ~pool ()) in
  let alloc () = Pool.alloc pool ~flow:0 ~seq:0 ~size_bits:512.0 ~arrival:0.0 in
  Array.iter (fun q -> ignore (Net.Fifo.push q (alloc ())); ignore (Net.Fifo.push q (alloc ()))) qs;
  let i = ref 0 in
  ns_per_iter ~iters (fun () ->
      let q = qs.(!i) in
      i := if !i + 1 = queues then 0 else !i + 1;
      ignore (Net.Fifo.push q (alloc ()));
      Pool.free pool (Net.Fifo.pop_exn q))

(* Hold model at a fixed pending-set size: every fired event schedules
   one more at an exponential distance, so one step is one fire plus one
   schedule. *)
let event ~pending ~iters =
  let sim = Sim.create () in
  let rng = Engine.Rng.create 1L in
  let gaps = Array.init 4096 (fun _ -> Engine.Rng.exponential rng ~mean:(float_of_int pending)) in
  let g = ref 0 in
  let rec fire () =
    g := (!g + 1) land 4095;
    ignore (Sim.schedule sim ~at:(Sim.now sim +. gaps.(!g)) fire)
  in
  for _ = 1 to pending do
    fire ()
  done;
  ns_per_iter ~iters (fun () -> ignore (Sim.step sim))

let decode ~path =
  Util.median_list
    (List.init 3 (fun _ ->
         Gc.full_major ();
         let t0 = Util.now_ns () in
         let events = Traffic.Trace.load_binary ~path in
         float_of_int (Util.now_ns () - t0) /. float_of_int (max 1 (List.length events))))

let run kind ~quick ~pending ~decode_path =
  let p = Workloads.params kind ~quick in
  let iters = if quick then 1_000 else 400_000 in
  let widest = Workloads.widest kind p and leaves = Workloads.leaf_count kind p in
  [
    ("prioq.heap4_ns_per_op", heap4 ~size:widest ~iters);
    ("sched.wf2q_plus_ns_per_cycle", wf2q ~size:widest ~iters);
    ("net.pool_fifo_ns_per_pkt", pool_fifo ~queues:leaves ~iters);
    ("engine.event_ns_per_event", event ~pending:(max 1 pending) ~iters);
    ("traffic.decode_ns_per_event", decode ~path:decode_path);
  ]
