(* Trace-replay benchmark (bench id "replay").

   One synthetic "internet mix" trace (heavy-tailed sizes, on/off bursts
   superposed on Poisson background — Traffic.Trace.internet_mix) replayed
   through the same H-WF2Q+ hierarchy at every rung of a burst_max ladder:
   1 (the classic per-packet event loop), 2, 8, 64 and unbounded. Arrivals
   are pre-scheduled from the trace — per-event at burst_max 1, grouped by
   timestamp (Trace.replay ~batched:true) above it — so the ladder measures
   the end-to-end cost of event-set traffic that burst-draining amortizes.

   Every rung must produce the identical departure sequence: the run folds
   (flow, seq, time) of each departure into an order-sensitive hash and
   refuses to write a report if any rung disagrees — the determinism
   contract (bit-identical schedules at every burst_max) enforced on the
   real workload, not just the property tests. [probe] re-measures the
   per-packet and batched rungs for the guard, whose hash check has no
   tolerance: the trace and the schedule are machine-independent. The
   batched rung's own throughput is benchmark/'s imix_replay workload.

   Below the ladder the report prints, and does not record, the same
   burst_max ladder for a saturated one-level server (Perf.server_throughput):
   the batching gain the trace ladder is compared with. *)

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

(* The ladder's batched rung used for the headline speedup. *)
let batched_burst = 64
let ladder = [ 1; 2; 8; batched_burst; max_int ]

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
  let leaf_ids = Hashtbl.create 256 in
  List.iter
    (fun (name, id) -> Hashtbl.replace leaf_ids name id)
    (Hpfq.Hier_engine.leaf_ids hier);
  let emit_for ~leaf =
    match Hashtbl.find_opt leaf_ids leaf with
    | None -> None
    | Some id ->
      Some
        (fun ~size_bits -> ignore (Hpfq.Hier_engine.inject hier ~leaf:id ~size_bits))
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

(* -- JSON report --------------------------------------------------------- *)

let row_json r =
  Json.Obj
    [
      ("burst_max", Json.Num (if r.burst = max_int then -1.0 else float_of_int r.burst));
      ("burst_label", Json.Str (burst_label r.burst));
      ("arrivals", Json.Num (float_of_int r.arrivals));
      ("departures", Json.Num (float_of_int r.departures));
      ("pkts_per_sec", Json.Num r.pkts_per_sec);
      ("minor_words_per_pkt", Json.Num r.minor_words_per_pkt);
      ("depart_hash", Json.Str r.depart_hash);
    ]

let find_row rows burst = List.find_opt (fun r -> r.burst = burst) rows

let json_of_run ~quick ~w rows =
  let headline =
    match (find_row rows 1, find_row rows batched_burst) with
    | Some per_pkt, Some batched ->
      Json.Obj
        [
          ("workload", Json.Str "internet_mix_replay");
          ("burst_max", Json.Num (float_of_int batched_burst));
          ("per_packet_pkts_per_sec", Json.Num per_pkt.pkts_per_sec);
          ("batched_pkts_per_sec", Json.Num batched.pkts_per_sec);
          ("speedup", Json.Num (batched.pkts_per_sec /. per_pkt.pkts_per_sec));
          ("batched_minor_words_per_pkt", Json.Num batched.minor_words_per_pkt);
          ("depart_hash", Json.Str batched.depart_hash);
        ]
    | _ -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-replay-v1");
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
      ("headline", headline);
      ("rows", Json.Arr (List.map row_json rows));
    ]

let check_hashes rows =
  match rows with
  | [] -> Ok ()
  | first :: _ when first.departures <> first.arrivals ->
    Error
      (Printf.sprintf "burst_max %s departed %d of %d arrivals"
         (burst_label first.burst) first.departures first.arrivals)
  | first :: rest -> (
    match
      List.find_opt
        (fun r ->
          r.depart_hash <> first.depart_hash
          || r.departures <> first.departures)
        rest
    with
    | None -> Ok ()
    | Some bad ->
      Error
        (Printf.sprintf
           "burst_max %s departed %d packets with hash %s; burst_max %s \
            departed %d with hash %s"
           (burst_label first.burst) first.departures first.depart_hash
           (burst_label bad.burst) bad.departures bad.depart_hash))

let report ~quick =
  let w = workload ~quick in
  let spec, trace = setup w in
  Printf.printf "trace: %d arrivals over %d leaves, %.3gs horizon\n%!"
    (List.length trace)
    (List.length (Hpfq.Class_tree.leaves spec))
    w.duration;
  (* the ladder runs sequentially on purpose: rungs share the machine the
     same way, so the speedup column is internally consistent *)
  let rows = List.map (fun burst -> measure ~spec ~trace ~burst ()) ladder in
  Printf.printf "%10s %10s %10s %16s %12s  %s\n" "burst_max" "arrivals"
    "departs" "pkts/sec" "words/pkt" "depart_hash";
  List.iter
    (fun r ->
      Printf.printf "%10s %10d %10d %16.0f %12.2f  %s\n" (burst_label r.burst)
        r.arrivals r.departures r.pkts_per_sec r.minor_words_per_pkt
        r.depart_hash)
    rows;
  (match check_hashes rows with
  | Ok () -> ()
  | Error msg ->
    failwith ("Replay_bench: determinism violated across the ladder: " ^ msg));
  let target_pkts = if quick then 2_000 else 400_000 in
  Printf.printf "\n%10s %16s %12s   (server+simulator, N=4096 saturated)\n"
    "burst_max" "pkts/sec" "words/pkt";
  List.iter
    (fun burst_max ->
      let pps, words = Perf.server_throughput ~n:4096 ~burst_max ~target_pkts () in
      Printf.printf "%10d %16.0f %12.2f\n" burst_max pps words)
    [ 1; 8; batched_burst ];
  json_of_run ~quick ~w rows

let probe ~quick =
  let spec, trace = setup (workload ~quick) in
  (* Each rung is best-of-3: machine interference only slows a replay
     down, and the batched/per-packet speedup of this workload (~1.1x)
     sits close enough to the floor that single samples gate on noise.
     Hash and words are identical across samples (determinism). *)
  let best ~burst =
    let first = measure ~spec ~trace ~burst () in
    List.fold_left
      (fun acc () ->
        let r = measure ~spec ~trace ~burst () in
        if r.pkts_per_sec > acc.pkts_per_sec then r else acc)
      first [ (); () ]
  in
  let per_pkt = best ~burst:1 in
  let batched = best ~burst:batched_burst in
  Json.Obj
    [
      ( "headline",
        Json.Obj
          [
            ("speedup", Json.Num (batched.pkts_per_sec /. per_pkt.pkts_per_sec));
            ("batched_minor_words_per_pkt", Json.Num batched.minor_words_per_pkt);
            ("depart_hash", Json.Str batched.depart_hash);
            ("per_packet_depart_hash", Json.Str per_pkt.depart_hash);
          ] );
    ]
