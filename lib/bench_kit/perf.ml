(* Hot-path throughput benchmark (bench id "perf").

   Two workloads, both dominated by the per-packet scheduling cycle whose
   O(log N) cost is the paper's headline complexity claim (eqs. 27-29):

   - one-level WF2Q+ with N perpetually backlogged sessions,
     N in 2^4 .. 2^14: packets/second through select+arrive+requeue,
     ns/cycle via bechamel, and minor words allocated per packet;
   - end-to-end H-WF2Q+ through the full Hier + Simulator stack for
     uniform trees of depth {2,4,6} x fan-out {4,16,64} (combinations
     whose leaf count exceeds a cap are reported as skipped).

   Results go to BENCH_hotpath.json at the invocation directory (the repo
   root under `dune exec bench/main.exe -- perf`) so successive PRs can
   diff machine-readable before/after numbers. *)

type one_level_row = {
  n : int;
  pkts_per_sec : float;
  ns_per_select : float; (* ns per full scheduling cycle (select-dominated) *)
  minor_words_per_pkt : float;
}

type hier_row = {
  depth : int;
  fanout : int;
  leaves : int;
  h_pkts_per_sec : float;
  h_minor_words_per_pkt : float;
}

(* [Gc.quick_stat] deltas over a measured run: collector pressure is the
   quantity the pooled packet plane is designed to remove, so the report
   carries it alongside throughput. *)
type gc_delta = {
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_promoted_words : float;
  gd_minor_words : float;
  gd_major_words : float;
}

let gc_delta_of ~(before : Gc.stat) ~(after : Gc.stat) =
  {
    gd_minor_collections = after.minor_collections - before.minor_collections;
    gd_major_collections = after.major_collections - before.major_collections;
    gd_promoted_words = after.promoted_words -. before.promoted_words;
    gd_minor_words = after.minor_words -. before.minor_words;
    gd_major_words = after.major_words -. before.major_words;
  }

type server_row = {
  s_burst : int;
  s_pkts_per_sec : float;
  s_minor_words_per_pkt : float;
  s_gc : gc_delta;
  s_pkts : float;
}

let max_hier_leaves = 4096

(* -- one-level workload -------------------------------------------------- *)

(* N perpetually backlogged unit-packet sessions; each step is one full
   scheduling cycle: select the next session, then hand it its next head
   packet (arrive + requeue). Mirrors the `complexity` bench. *)
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

let bechamel_ns_per_cycle ~quick tests =
  let open Bechamel in
  let quota = Time.second (if quick then 0.02 else 0.25) in
  let cfg = Benchmark.cfg ~limit:(if quick then 20 else 300) ~quota ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns = match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan in
      (name, ns) :: acc)
    results []

(* Bechamel's ns/cycle regression stays sequential (its OLS assumes an
   unloaded machine); only the independent per-N wall/allocation rows fan
   out, with the same contention caveat as [hier_rows]. *)
let one_level ~pool ~quick ~factory () =
  let sizes =
    if quick then [ 16; 64 ]
    else List.init 11 (fun i -> 1 lsl (i + 4)) (* 2^4 .. 2^14 *)
  in
  let iters = if quick then 2_000 else 200_000 in
  let tests =
    Bechamel.Test.make_grouped ~name:"cycle"
      (List.map
         (fun n ->
           Bechamel.Test.make
             ~name:(string_of_int n)
             (Bechamel.Staged.stage (loaded_policy factory n)))
         sizes)
  in
  let ns_by_size = bechamel_ns_per_cycle ~quick tests in
  Parallel.Pool.map_list pool
    ~f:(fun n ->
      let cycle = loaded_policy factory n in
      let wall, minor = time_loop cycle ~iters in
      let ns =
        match List.assoc_opt (Printf.sprintf "cycle/%d" n) ns_by_size with
        | Some x -> x
        | None -> wall /. float_of_int iters *. 1e9
      in
      {
        n;
        pkts_per_sec = float_of_int iters /. wall;
        ns_per_select = ns;
        minor_words_per_pkt = minor /. float_of_int iters;
      })
    sizes

(* -- saturated server through the full event loop ------------------------ *)

(* The same N-session saturated workload as [loaded_policy], but through
   Server + Simulator, with arrivals delivered the way a replayed trace or
   a device ingress delivers them: in coalesced ticks. Every
   [server_batched_burst] time units a bunch of that many 1-bit packets
   arrives (sessions spread by a golden-ratio stride), keeping the rate-1
   link exactly saturated. At burst_max 1 every arrival is its own
   pre-scheduled simulator event and every departure re-arms the event
   loop — two event-set round trips per packet against a pending set that
   starts out holding every future arrival. At burst_max > 1 each tick is
   ONE event applying its bunch back-to-back (the enqueue_batch /
   grouped-replay idiom) and departures drain inline between ticks, so
   the event set is touched ~2x per tick instead of ~2x per packet.
   Departure times and order are bit-identical either way (the
   burst-drain contract of [Hpfq.Link], checked on the server by
   test_server's "burst drain = per-packet" property); only the event-set traffic
   changes — which is exactly what this row isolates (the pure
   policy-cycle loop above has no simulator to amortize). *)
let server_batched_burst = 64

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
  let bunch = server_batched_burst in
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
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Engine.Simulator.run ~until:horizon sim;
  let wall = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  let minor = s1.minor_words -. s0.minor_words in
  let pkts = float_of_int !departs in
  (pkts /. wall, minor /. Float.max 1.0 pkts, gc_delta_of ~before:s0 ~after:s1, pkts)

let server_rows ~quick () =
  let n = 4096 in
  let target_pkts = if quick then 2_000 else 400_000 in
  List.map
    (fun burst ->
      let pps, words, gc, pkts =
        server_throughput ~n ~burst_max:burst ~target_pkts ()
      in
      {
        s_burst = burst;
        s_pkts_per_sec = pps;
        s_minor_words_per_pkt = words;
        s_gc = gc;
        s_pkts = pkts;
      })
    [ 1; 8; server_batched_burst ]

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

(* Root rate 1 bit/s and 1-bit packets make the simulated horizon equal
   the departure count. *)
let hier_throughput ?engine ~depth ~fanout ~factory ~target_pkts () =
  hier_throughput_spec ?engine
    ~spec:(uniform_spec ~depth ~fanout ~name:"root" ~rate:1.0)
    ~factory ~pkt_bits:1.0 ~target_pkts ()

(* The depth × fan-out grid cells are independent full-stack simulations,
   so they fan out on [pool] — but concurrent cells contend for cores and
   memory bandwidth, which inflates each other's wall clock, so the
   *numbers* are only comparable across runs at the same -j. The default
   stays sequential; the committed baseline is always -j1 (the guard
   measures sequentially regardless). *)
let hier_rows ~pool ~quick ~factory () =
  let combos =
    if quick then [ (2, 4) ]
    else
      List.concat_map (fun d -> List.map (fun f -> (d, f)) [ 4; 16; 64 ]) [ 2; 4; 6 ]
  in
  let target_pkts = if quick then 500 else 100_000 in
  Parallel.Pool.map_list pool
    ~f:(fun (depth, fanout) ->
      let leaves = int_of_float (float_of_int fanout ** float_of_int depth) in
      if leaves > max_hier_leaves then Either.Right (depth, fanout, leaves)
      else begin
        let n_leaves, pps, words =
          hier_throughput ~depth ~fanout ~factory ~target_pkts ()
        in
        Either.Left
          {
            depth;
            fanout;
            leaves = int_of_float n_leaves;
            h_pkts_per_sec = pps;
            h_minor_words_per_pkt = words;
          }
      end)
    combos
  |> List.partition_map Fun.id

(* Single-number probe for comparing two builds of the scheduler under
   identical machine conditions (run alternately against a baseline
   checkout carrying this same harness): median over [runs] one-level
   WF2Q+ throughput measurements at [n] sessions, best-of-[runs]:
   machine interference only ever slows a sample down, so the fastest
   sample is the most stable estimator of what the build can do (the
   classic min-time microbenchmark estimator). The report's headline
   pkts_per_sec and the guard's fresh measurement both come from this
   probe, so guard comparisons are apples-to-apples — the per-N rows use
   shorter single samples. *)
let headline ?(n = 4096) ?(iters = 1_000_000) ?(runs = 9) () =
  let factory = Hpfq.Disciplines.wf2q_plus in
  let samples =
    List.init runs (fun _ ->
        let cycle = loaded_policy factory n in
        let wall, _ = time_loop cycle ~iters in
        float_of_int iters /. wall)
  in
  List.fold_left Float.max 0.0 samples

(* -- JSON report --------------------------------------------------------- *)

let json_of_run ~quick ~headline_pps ~one_level_rows ~server_rows ~hier_done
    ~hier_skipped =
  let one_level_json =
    Json.Arr
      (List.map
         (fun r ->
           Json.Obj
             [
               ("n", Json.Num (float_of_int r.n));
               ("pkts_per_sec", Json.Num r.pkts_per_sec);
               ("ns_per_select", Json.Num r.ns_per_select);
               ("minor_words_per_pkt", Json.Num r.minor_words_per_pkt);
             ])
         one_level_rows)
  in
  let hier_json =
    Json.Arr
      (List.map
         (fun r ->
           Json.Obj
             [
               ("depth", Json.Num (float_of_int r.depth));
               ("fanout", Json.Num (float_of_int r.fanout));
               ("leaves", Json.Num (float_of_int r.leaves));
               ("pkts_per_sec", Json.Num r.h_pkts_per_sec);
               ("minor_words_per_pkt", Json.Num r.h_minor_words_per_pkt);
             ])
         hier_done)
  in
  let skipped_json =
    Json.Arr
      (List.map
         (fun (d, f, leaves) ->
           Json.Obj
             [
               ("depth", Json.Num (float_of_int d));
               ("fanout", Json.Num (float_of_int f));
               ("leaves", Json.Num (float_of_int leaves));
             ])
         hier_skipped)
  in
  let gc_json_of r =
    Json.Obj
      [
        ("minor_collections", Json.Num (float_of_int r.s_gc.gd_minor_collections));
        ("major_collections", Json.Num (float_of_int r.s_gc.gd_major_collections));
        ("promoted_words", Json.Num r.s_gc.gd_promoted_words);
        ("minor_words", Json.Num r.s_gc.gd_minor_words);
        ("major_words", Json.Num r.s_gc.gd_major_words);
        ( "promoted_words_per_pkt",
          Json.Num (r.s_gc.gd_promoted_words /. Float.max 1.0 r.s_pkts) );
      ]
  in
  let server_json =
    Json.Arr
      (List.map
         (fun r ->
           Json.Obj
             [
               ("burst_max", Json.Num (float_of_int r.s_burst));
               ("pkts_per_sec", Json.Num r.s_pkts_per_sec);
               ("minor_words_per_pkt", Json.Num r.s_minor_words_per_pkt);
               ("gc", gc_json_of r);
             ])
         server_rows)
  in
  (* collector pressure of the batched saturated-server run: the workload
     whose allocation profile the pooled plane targets *)
  let gc_section =
    match List.find_opt (fun r -> r.s_burst = server_batched_burst) server_rows with
    | Some r ->
      Json.Obj
        [
          ("workload", Json.Str "server_one_level_wf2q_plus_n4096_saturated");
          ("burst_max", Json.Num (float_of_int r.s_burst));
          ("pkts", Json.Num r.s_pkts);
          ("delta", gc_json_of r);
        ]
    | None -> Json.Null
  in
  let batched_headline =
    let find burst = List.find_opt (fun r -> r.s_burst = burst) server_rows in
    match (find 1, find server_batched_burst) with
    | Some per_pkt, Some batched ->
      Json.Obj
        [
          ("workload", Json.Str "server_one_level_wf2q_plus_n4096_saturated");
          ("burst_max", Json.Num (float_of_int server_batched_burst));
          ("per_packet_pkts_per_sec", Json.Num per_pkt.s_pkts_per_sec);
          ("batched_pkts_per_sec", Json.Num batched.s_pkts_per_sec);
          ("speedup", Json.Num (batched.s_pkts_per_sec /. per_pkt.s_pkts_per_sec));
        ]
    | _ -> Json.Null
  in
  let headline =
    match List.find_opt (fun r -> r.n = 4096) one_level_rows with
    | Some r ->
      Json.Obj
        [
          ("workload", Json.Str "one_level_wf2q_plus_n4096");
          ("pkts_per_sec", Json.Num (Option.value headline_pps ~default:r.pkts_per_sec));
          ("ns_per_select", Json.Num r.ns_per_select);
          ("minor_words_per_pkt", Json.Num r.minor_words_per_pkt);
        ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-hotpath-v1");
      ("bench", Json.Str "perf");
      ("quick", Json.Bool quick);
      ("headline", headline);
      ("batched_headline", batched_headline);
      ("gc", gc_section);
      ("one_level", one_level_json);
      ("server", server_json);
      ("hier", hier_json);
      ("hier_skipped", skipped_json);
    ]

let report ~quick =
  let pool = Parallel.Pool.create () in
  let factory = Hpfq.Disciplines.wf2q_plus in
  let one_level_rows = one_level ~pool ~quick ~factory () in
  Printf.printf "%8s %16s %14s %12s\n" "N" "pkts/sec" "ns/select" "words/pkt";
  List.iter
    (fun r ->
      Printf.printf "%8d %16.0f %14.1f %12.2f\n" r.n r.pkts_per_sec r.ns_per_select
        r.minor_words_per_pkt)
    one_level_rows;
  let server_rows = server_rows ~quick () in
  Printf.printf "\n%10s %16s %12s   (server+simulator, N=4096 saturated)\n"
    "burst_max" "pkts/sec" "words/pkt";
  List.iter
    (fun r ->
      Printf.printf "%10d %16.0f %12.2f\n" r.s_burst r.s_pkts_per_sec
        r.s_minor_words_per_pkt)
    server_rows;
  let hier_done, hier_skipped = hier_rows ~pool ~quick ~factory () in
  Printf.printf "\n%6s %7s %7s %16s %12s\n" "depth" "fanout" "leaves" "pkts/sec" "words/pkt";
  List.iter
    (fun r ->
      Printf.printf "%6d %7d %7d %16.0f %12.2f\n" r.depth r.fanout r.leaves r.h_pkts_per_sec
        r.h_minor_words_per_pkt)
    hier_done;
  List.iter
    (fun (d, f, leaves) ->
      Printf.printf "%6d %7d %7d %16s (skipped: > %d leaves)\n" d f leaves "-"
        max_hier_leaves)
    hier_skipped;
  (* Committed headline pps must be measured the way the guard's probe
     measures its fresh side (same probe, main domain, no bechamel
     residue) or the guard's tolerance band compares two different
     methodologies. Quick reports are never guard baselines, so they keep
     the row sample. *)
  let headline_pps = if quick then None else Some (headline ()) in
  (match headline_pps with
  | Some pps -> Printf.printf "\nheadline (guard probe) %16.0f pkts/sec\n" pps
  | None -> ());
  json_of_run ~quick ~headline_pps ~one_level_rows ~server_rows ~hier_done
    ~hier_skipped

(* Allocation is deterministic per packet (unlike wall clock), so a single
   measurement at the headline shape suffices for the words ceiling. *)
let probe ~quick =
  let n = if quick then 64 else 4096 in
  let pps = if quick then headline ~n ~iters:2_000 ~runs:1 () else headline () in
  let iters = if quick then 2_000 else 400_000 in
  let _, minor = time_loop (loaded_policy Hpfq.Disciplines.wf2q_plus n) ~iters in
  Json.Obj
    [
      ( "headline",
        Json.Obj
          [
            ("pkts_per_sec", Json.Num pps);
            ("minor_words_per_pkt", Json.Num (minor /. float_of_int iters));
          ] );
    ]
