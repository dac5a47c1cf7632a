(* Throughput loops shared by the bench suites, `bench complexity`,
   `bench trace-overhead`, test_bench_smoke and benchmark/.

   The bare WF2Q+ policy cycle whose O(log N) cost is the paper's
   headline complexity claim (eqs. 27-29), the same N-session workload
   through Server + Simulator, and a saturated hierarchy through the
   Hier_engine facade. What they measure is judged elsewhere:
   benchmark/'s port_4k and tree_4k_d6 workloads for throughput,
   test_bench_smoke for the bare cycle's allocation. *)

(* N perpetually backlogged unit-packet sessions; each step is one full
   scheduling cycle: select the next session, then hand it its next head
   packet (arrive + requeue). *)
let loaded_policy_with factory n =
  let policy = factory.Sched.Sched_intf.make ~rate:1.0 in
  let rate = 1.0 /. float_of_int n in
  for _ = 1 to n do
    ignore Sched.Sched_intf.(policy.session_of_handle (policy.open_session ~rate))
  done;
  for i = 0 to n - 1 do
    policy.Sched.Sched_intf.arrive ~now:0.0 ~session:i ~size_bits:1.0;
    policy.Sched.Sched_intf.backlog ~now:0.0 ~session:i ~head_bits:1.0
  done;
  let now = ref 0.0 in
  let cycle () =
    match policy.Sched.Sched_intf.select ~now:!now with
    | None -> ()
    | Some s ->
      now := !now +. 1.0;
      policy.Sched.Sched_intf.arrive ~now:!now ~session:s ~size_bits:1.0;
      policy.Sched.Sched_intf.requeue ~now:!now ~session:s ~head_bits:1.0
  in
  (policy, cycle)

let loaded_policy factory n = snd (loaded_policy_with factory n)

let time_loop cycle ~iters =
  for _ = 1 to min 1000 iters do
    cycle () (* warm caches, grow heaps to steady state *)
  done;
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    cycle ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. m0 in
  (wall, minor)

(* -- saturated server through the full event loop ------------------------ *)

(* The same N-session saturated workload as [loaded_policy], but through
   Server + Simulator, with arrivals delivered the way a replayed trace or
   a device ingress delivers them: in coalesced ticks. Every [bunch] time
   units a bunch of that many 1-bit packets arrives (sessions spread by a
   golden-ratio stride), keeping the rate-1 link exactly saturated. At
   burst_max 1 every arrival is its own pre-scheduled simulator event and
   every departure re-arms the event loop — two event-set round trips per
   packet against a pending set that starts out holding every future
   arrival. At burst_max > 1 each tick is ONE event applying its bunch
   back-to-back (the enqueue_batch / grouped-replay idiom) and departures
   drain inline between ticks, so the event set is touched ~2x per tick
   instead of ~2x per packet. Departure times and order are bit-identical
   either way (the burst-drain contract of [Hpfq.Link], checked on the
   server by test_server's "burst drain = per-packet" property); only the
   event-set traffic changes — which is exactly what this run isolates
   (the bare policy cycle above has no simulator to amortize). *)
let bunch = 64

let server_throughput ~n ~burst_max ~target_pkts () =
  let sim = Engine.Simulator.create () in
  let factory = Hpfq.Disciplines.wf2q_plus in
  let policy = factory.Sched.Sched_intf.make ~rate:1.0 in
  let departs = ref 0 in
  let srv = Hpfq.Server.create ~sim ~rate:1.0 ~policy ~burst_max () in
  (* handle hook: counting departures must not materialise packet records *)
  Hpfq.Server.add_depart_handle_hook srv (fun _h _t -> incr departs);
  let rate = 1.0 /. float_of_int n in
  for _ = 1 to n do
    ignore (Hpfq.Server.open_session srv ~rate ())
  done;
  let ticks = max 1 (target_pkts / bunch) in
  (* [n] is a power of two, so the odd stride visits sessions uniformly *)
  let session_of i = i * 0x9E3779B1 land (n - 1) in
  let inject_one i =
    ignore (Hpfq.Server.inject srv ~session:(session_of i) ~size_bits:1.0)
  in
  if burst_max > 1 then
    for t = 0 to ticks - 1 do
      let base = t * bunch in
      ignore
        (Engine.Simulator.schedule sim ~at:(float_of_int base) (fun () ->
             for j = 0 to bunch - 1 do
               inject_one (base + j)
             done))
    done
  else
    for i = 0 to (ticks * bunch) - 1 do
      ignore
        (Engine.Simulator.schedule sim
           ~at:(float_of_int (i / bunch * bunch))
           (fun () -> inject_one i))
    done;
  (* a standing backlog keeps the link busy across tick seams; injected
     synchronously at time 0, before any arrival event fires *)
  for s = 0 to min n 128 - 1 do
    Hpfq.Server.inject_batch srv ~session:s ~size_bits:1.0 ~count:1
  done;
  (* rate 1 bit/s and 1-bit packets: the horizon equals the packet count *)
  let horizon = float_of_int (ticks * bunch) in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Engine.Simulator.run ~until:horizon sim;
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. m0 in
  let pkts = float_of_int !departs in
  (pkts /. wall, minor /. Float.max 1.0 pkts)

(* -- hierarchical workload ----------------------------------------------- *)

let rec uniform_spec ~depth ~fanout ~name ~rate =
  if depth = 0 then Hpfq.Class_tree.leaf name ~rate
  else
    Hpfq.Class_tree.node name ~rate
      (List.init fanout (fun i ->
           uniform_spec ~depth:(depth - 1) ~fanout
             ~name:(Printf.sprintf "%s.%d" name i)
             ~rate:(rate /. float_of_int fanout)))

(* Every leaf kept at a steady backlog of two packets: prime with two,
   re-inject one on each departure. The horizon is sized so roughly
   [target_pkts] packets depart whatever the tree's root rate. *)
let hier_throughput_spec ?engine ~spec ~factory ~pkt_bits ~target_pkts () =
  let module HE = Hpfq.Hier_engine in
  let leaves = ref [] in
  let sim = Engine.Simulator.create () in
  let departs = ref 0 in
  let reinject_name = Hashtbl.create 256 in
  let hier = HE.create ~sim ~spec ~factory ?engine () in
  (* handle hook: the re-injection loop is the measured hot path, so it
     must not materialise a packet record per departure *)
  HE.add_depart_handle_hook hier (fun _h ~leaf _t ->
      incr departs;
      match Hashtbl.find_opt reinject_name leaf with
      | Some id -> ignore (HE.inject hier ~leaf:id ~size_bits:pkt_bits)
      | None -> ());
  List.iter
    (fun (name, id) ->
      Hashtbl.replace reinject_name name id;
      leaves := id :: !leaves)
    (HE.leaf_ids hier);
  List.iter
    (fun id -> HE.inject_many hier ~leaf:id ~size_bits:pkt_bits ~count:2)
    !leaves;
  let horizon =
    float_of_int target_pkts *. pkt_bits /. Hpfq.Class_tree.rate spec
  in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Engine.Simulator.run ~until:horizon sim;
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. m0 in
  let pkts = float_of_int !departs in
  ( float_of_int (List.length !leaves),
    pkts /. wall,
    minor /. Float.max 1.0 pkts )
