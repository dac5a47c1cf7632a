(* Trace-replay benchmark (bench id "replay").

   One synthetic "internet mix" trace (heavy-tailed sizes, on/off bursts
   superposed on Poisson background — Traffic.Trace.internet_mix) replayed
   through the same H-WF2Q+ hierarchy at every rung of a burst_max ladder:
   1 (the classic per-packet event loop), 2, 8, 64 and unbounded. Arrivals
   are pre-scheduled from the trace — per-event at burst_max 1, grouped by
   timestamp (Trace.replay ~batched:true) above it — so the ladder measures
   the end-to-end cost of event-set traffic that burst-draining amortizes.

   Every replay must produce the identical departure sequence: the run
   folds (flow, seq, time) of each departure into an order-sensitive hash
   and the suite fails if any replay disagrees with the first — the
   determinism contract (bit-identical schedules at every burst_max)
   enforced on the real workload, not just the property tests. The
   guard's hash check has no tolerance: the trace and the schedule are
   machine-independent. The batched rung's own throughput is
   benchmark/'s imix_replay workload.

   Each rung above 1 is one row: its rate over burst 1's as same-run
   pairs. On this trace batching saves only a few percent, so those rows
   are information. The gated ratio is the same ladder on a saturated
   one-level server (Perf.server_throughput, N = 4096, burst 8 and 64
   over 1), where batching pays about 2x: the guard holds burst 64 over
   1 there. *)

module Perf = Bench_kit.Perf
module Json = Bench_kit.Json
module Trace = Traffic.Trace

type workload = {
  depth : int;
  fanout : int;
  seed : int64;
  duration : float;
  mean_pkts_per_leaf : float;
  headroom : float; (* link rate / offered load *)
}

let full_workload =
  {
    depth = 2;
    fanout = 32 (* 1024 leaves *);
    seed = 0x7e9157a11L;
    duration = 1.0;
    mean_pkts_per_leaf = 100.0;
    headroom = 1.25;
  }

let quick_workload =
  { full_workload with fanout = 8 (* 64 leaves *); mean_pkts_per_leaf = 16.0 }

let workload ~quick = if quick then quick_workload else full_workload

(* The rung the headline and the guard compare with burst 1. *)
let batched_burst = 64
let ladder = [ 2; 8; batched_burst; max_int ]
let server_ladder = [ 8; batched_burst ]

let burst_label burst = if burst = max_int then "inf" else string_of_int burst

(* Rate-1 spec; the real link rate is applied by scaling after the trace's
   offered load is known, keeping per-node shares identical. *)
let rec scale_rates factor spec =
  let open Hpfq.Class_tree in
  if is_leaf spec then leaf (name spec) ~rate:(rate spec *. factor)
  else node (name spec) ~rate:(rate spec *. factor)
         (List.map (scale_rates factor) (children spec))

let setup w =
  let unit_spec =
    Perf.uniform_spec ~depth:w.depth ~fanout:w.fanout ~name:"root" ~rate:1.0
  in
  let leaves = List.map fst (Hpfq.Class_tree.leaves unit_spec) in
  let trace =
    Trace.internet_mix ~seed:w.seed ~leaves ~duration:w.duration
      ~mean_pkts_per_leaf:w.mean_pkts_per_leaf ()
  in
  let total_bits =
    List.fold_left (fun acc e -> acc +. e.Trace.size_bits) 0.0 trace
  in
  let rate = w.headroom *. total_bits /. w.duration in
  (scale_rates rate unit_spec, trace)

(* -- order-sensitive departure hash -------------------------------------- *)

let golden = 0x9E3779B97F4A7C15L

let fold_hash h k = Engine.Rng.mix64 (Int64.add (Int64.mul h golden) k)

let depart_key ~flow ~seq ~time =
  Engine.Rng.mix64
    (Int64.logxor
       (Int64.of_int ((flow * 0x3779) + seq))
       (Int64.bits_of_float time))

type row = {
  burst : int;
  arrivals : int;
  departures : int;
  pkts_per_sec : float;
  minor_words_per_pkt : float;
  depart_hash : string;
}

let measure ?(engine = `Auto) ~spec ~trace ~burst () =
  let sim = Engine.Simulator.create () in
  let departures = ref 0 in
  let hash = ref golden in
  let hier =
    Hpfq.Hier_engine.create ~sim ~spec ~factory:Hpfq.Disciplines.wf2q_plus
      ~engine ~burst_max:burst ()
  in
  (* handle hook: flow/seq are pool reads, no packet record per departure *)
  let pool = Hpfq.Hier_engine.pool hier in
  Hpfq.Hier_engine.add_depart_handle_hook hier (fun h ~leaf:_ time ->
      incr departures;
      hash :=
        fold_hash !hash
          (depart_key ~flow:(Net.Packet_pool.flow pool h)
             ~seq:(Net.Packet_pool.seq pool h) ~time));
  (* [replay] asks once per distinct leaf: one lookup and one closure
     each; a name that is no leaf of the tree is skipped *)
  let emit_for ~leaf =
    match Hpfq.Hier_engine.leaf_id hier leaf with
    | id -> Some (fun ~size_bits -> ignore (Hpfq.Hier_engine.inject hier ~leaf:id ~size_bits))
    | exception (Not_found | Invalid_argument _) -> None
  in
  let arrivals = Trace.replay ~batched:(burst > 1) ~sim ~emit_for trace in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Engine.Simulator.run sim;
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. m0 in
  let pkts = float_of_int !departures in
  {
    burst;
    arrivals;
    departures = !departures;
    pkts_per_sec = pkts /. wall;
    minor_words_per_pkt = minor /. Float.max 1.0 pkts;
    depart_hash = Printf.sprintf "%016Lx" !hash;
  }

(* Every rung's rate over burst 1's on one trace, as same-run pairs.
   Every replay must drain the trace with the first one's departure
   count and hash. Returns the rung function and the last replay of each
   burst. *)
let trace_rungs ~spec ~trace =
  let first = ref None and last = Hashtbl.create 5 in
  let rate burst () =
    let r = measure ~spec ~trace ~burst () in
    let f = Option.value !first ~default:r in
    if r.departures <> r.arrivals || r.departures <> f.departures
       || r.depart_hash <> f.depart_hash
    then
      failwith
        (Printf.sprintf
           "Replay_bench: determinism violated across the ladder: burst_max %s \
            departed %d of %d arrivals with hash %s; burst_max %s departed %d \
            with hash %s"
           (burst_label r.burst) r.departures r.arrivals r.depart_hash
           (burst_label f.burst) f.departures f.depart_hash);
    first := Some f;
    Hashtbl.replace last burst r;
    r.pkts_per_sec
  in
  ((fun burst -> Bench_kit.Suite.pairs ~num:(rate burst) ~den:(rate 1) ()), last)

(* The saturated one-level server's rate at one burst cap over burst 1's,
   as same-run pairs, with the cap's minor words/packet: the report's
   server rows and the guard's ratio. *)
let server_rung ~quick burst =
  let target_pkts = if quick then 2_000 else 400_000 in
  let words = ref nan in
  let rate burst_max () =
    let pps, w = Perf.server_throughput ~n:4096 ~burst_max ~target_pkts () in
    if burst_max = burst then words := w;
    pps
  in
  let pairs = Bench_kit.Suite.pairs ~num:(rate burst) ~den:(rate 1) () in
  (pairs, !words)

let ratio = Bench_kit.Suite.ratio

let row_json ~burst ~pairs fields =
  Json.Obj
    ((("burst_max", Json.Num (if burst = max_int then -1.0 else float_of_int burst))
     :: fields)
    @ [ ("speedup", Json.Num (ratio pairs)); ("pkts_per_sec", pairs) ])

let report ~quick =
  let w = workload ~quick in
  let spec, trace = setup w in
  Printf.printf "trace: %d arrivals over %d leaves, %.3gs horizon\n%!"
    (List.length trace)
    (List.length (Hpfq.Class_tree.leaves spec))
    w.duration;
  let rung, last = trace_rungs ~spec ~trace in
  let rows = List.map (fun burst -> (burst, rung burst)) ladder in
  let run = Hashtbl.find last in
  let print_rung burst vs =
    let r = run burst in
    Printf.printf "%10s %10d %10d %9s %12.2f  %s\n" (burst_label burst) r.arrivals
      r.departures vs r.minor_words_per_pkt r.depart_hash
  in
  Printf.printf "%10s %10s %10s %9s %12s  %s\n" "burst_max" "arrivals" "departs" "vs 1"
    "words/pkt" "depart_hash";
  print_rung 1 "";
  List.iter (fun (burst, pairs) -> print_rung burst (Printf.sprintf "%.2fx" (ratio pairs))) rows;
  let server_rows = List.map (fun burst -> (burst, server_rung ~quick burst)) server_ladder in
  Printf.printf "\n%10s %9s %12s   (server+simulator, N=4096 saturated)\n" "burst_max"
    "vs 1" "words/pkt";
  List.iter
    (fun (burst, (pairs, words)) -> Printf.printf "%10d %8.2fx %12.2f\n" burst (ratio pairs) words)
    server_rows;
  let batched = run batched_burst in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-replay-v2");
      ("bench", Json.Str "replay");
      ("quick", Json.Bool quick);
      ( "workload",
        Json.Obj
          [
            ("generator", Json.Str "internet_mix");
            ("seed", Json.Num (Int64.to_float w.seed));
            ("leaves", Json.Num (float_of_int w.fanout ** float_of_int w.depth));
            ("depth", Json.Num (float_of_int w.depth));
            ("fanout", Json.Num (float_of_int w.fanout));
            ("duration", Json.Num w.duration);
            ("mean_pkts_per_leaf", Json.Num w.mean_pkts_per_leaf);
            ("headroom", Json.Num w.headroom);
          ] );
      ( "headline",
        Json.Obj
          [
            ("workload", Json.Str "internet_mix_replay");
            ("burst_max", Json.Num (float_of_int batched_burst));
            ("batched_over_per_packet", Json.Num (ratio (List.assoc batched_burst rows)));
            ( "server_batched_over_per_packet",
              Json.Num (ratio (fst (List.assoc batched_burst server_rows))) );
            ("batched_minor_words_per_pkt", Json.Num batched.minor_words_per_pkt);
            ("per_packet_minor_words_per_pkt", Json.Num (run 1).minor_words_per_pkt);
            ("depart_hash", Json.Str batched.depart_hash);
          ] );
      ( "rows",
        Json.Arr
          (List.map
             (fun (burst, pairs) ->
               let r = run burst in
               row_json ~burst ~pairs
                 [
                   ("burst_label", Json.Str (burst_label burst));
                   ("arrivals", Json.Num (float_of_int r.arrivals));
                   ("departures", Json.Num (float_of_int r.departures));
                   ("minor_words_per_pkt", Json.Num r.minor_words_per_pkt);
                   ("depart_hash", Json.Str r.depart_hash);
                 ])
             rows) );
      ( "server_rows",
        Json.Arr
          (List.map
             (fun (burst, (pairs, words)) ->
               row_json ~burst ~pairs [ ("minor_words_per_pkt", Json.Num words) ])
             server_rows) );
    ]

(* The guard's fresh side: the report's gated server row, and one
   batched and one per-packet replay of the trace for the hashes and the
   allocation ceiling (both the same in every replay). *)
let probe ~quick =
  let spec, trace = setup (workload ~quick) in
  let batched = measure ~spec ~trace ~burst:batched_burst () in
  let per_pkt = measure ~spec ~trace ~burst:1 () in
  Json.Obj
    [
      ("server_batched_over_per_packet", fst (server_rung ~quick batched_burst));
      ( "headline",
        Json.Obj
          [
            ("batched_minor_words_per_pkt", Json.Num batched.minor_words_per_pkt);
            ("depart_hash", Json.Str batched.depart_hash);
            ("per_packet_depart_hash", Json.Str per_pkt.depart_hash);
          ] );
    ]
