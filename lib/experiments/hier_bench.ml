(* Hierarchy engine A/B benchmark (bench id "hier").

   The generic H-PFQ server (Hpfq.Hier) composes boxed one-level policies
   behind first-class function records; the flattened engine
   (Hpfq.Hier_flat) runs the same H-WF2Q+ algorithm over unboxed arrays
   with direct static calls — bit-identical schedules (the lockstep
   property test proves it), different constant factors. This suite
   measures both engines end to end — saturated steady state, every leaf
   at a two-packet backlog — on the paper's Fig. 3 topology and on
   balanced trees of depth 2/4/6 up to 4096 leaves, then writes
   BENCH_hier.json with per-topology flat/generic speedups and a Fig. 3
   headline. [probe] re-measures the headline's same-run speedup and
   allocation for the guard; the flat engine's own throughput is
   benchmark/'s tree_4k_d6 workload. *)

module H = Paper_hierarchies
module Perf = Bench_kit.Perf
module Json = Bench_kit.Json

type engine_kind = Generic | Flat

let engine_name = function Generic -> "generic" | Flat -> "flat"
let engine_choice = function Generic -> `Generic | Flat -> `Flat

type row = {
  topology : string;
  leaves : int;
  engine : engine_kind;
  pkts_per_sec : float;
  minor_words_per_pkt : float;
}

(* Each cell: (label, spec, pkt_bits). Fig. 3 runs with the paper's 8 KB
   packets at its real rates; balanced trees use rate 1 and 1-bit packets
   so the horizon equals the departure count. *)
let balanced ~depth ~fanout =
  ( Printf.sprintf "balanced_d%d_f%d" depth fanout,
    Perf.uniform_spec ~depth ~fanout ~name:"root" ~rate:1.0,
    1.0 )

let topologies ~quick =
  if quick then [ ("fig3", H.fig3, H.fig3_packet_bits); balanced ~depth:2 ~fanout:4 ]
  else
    [
      ("fig3", H.fig3, H.fig3_packet_bits);
      balanced ~depth:2 ~fanout:8 (* 64 leaves *);
      balanced ~depth:2 ~fanout:64 (* 4096 leaves *);
      balanced ~depth:4 ~fanout:4 (* 256 leaves *);
      balanced ~depth:4 ~fanout:8 (* 4096 leaves *);
      balanced ~depth:6 ~fanout:2 (* 64 leaves *);
      balanced ~depth:6 ~fanout:4 (* 4096 leaves *);
    ]

let headline_topology = "fig3"
let default_target_pkts ~quick = if quick then 500 else 100_000

let measure ~spec ~pkt_bits ~engine ~target_pkts ~topology () =
  let n_leaves, pps, words =
    Perf.hier_throughput_spec ~engine:(engine_choice engine) ~spec
      ~factory:Hpfq.Disciplines.wf2q_plus ~pkt_bits ~target_pkts ()
  in
  {
    topology;
    leaves = int_of_float n_leaves;
    engine;
    pkts_per_sec = pps;
    minor_words_per_pkt = words;
  }

(* -- JSON report --------------------------------------------------------- *)

let row_json r =
  Json.Obj
    [
      ("topology", Json.Str r.topology);
      ("leaves", Json.Num (float_of_int r.leaves));
      ("engine", Json.Str (engine_name r.engine));
      ("pkts_per_sec", Json.Num r.pkts_per_sec);
      ("minor_words_per_pkt", Json.Num r.minor_words_per_pkt);
    ]

let find_row rows ~topology ~engine =
  List.find_opt (fun r -> r.topology = topology && r.engine = engine) rows

let speedups rows =
  List.filter_map
    (fun topology ->
      match
        (find_row rows ~topology ~engine:Flat, find_row rows ~topology ~engine:Generic)
      with
      | Some f, Some g -> Some (topology, f, g, f.pkts_per_sec /. g.pkts_per_sec)
      | _ -> None)
    (List.sort_uniq compare (List.map (fun r -> r.topology) rows))

let json_of_run ~quick rows =
  let headline =
    match
      ( find_row rows ~topology:headline_topology ~engine:Flat,
        find_row rows ~topology:headline_topology ~engine:Generic )
    with
    | Some f, Some g ->
      Json.Obj
        [
          ("workload", Json.Str "fig3_saturated");
          ("flat_pkts_per_sec", Json.Num f.pkts_per_sec);
          ("generic_pkts_per_sec", Json.Num g.pkts_per_sec);
          ("speedup", Json.Num (f.pkts_per_sec /. g.pkts_per_sec));
          ("flat_minor_words_per_pkt", Json.Num f.minor_words_per_pkt);
          ("generic_minor_words_per_pkt", Json.Num g.minor_words_per_pkt);
        ]
    | _ -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-hier-v1");
      ("bench", Json.Str "hier");
      ("quick", Json.Bool quick);
      ("headline", headline);
      ("rows", Json.Arr (List.map row_json rows));
      ( "speedups",
        Json.Arr
          (List.map
             (fun (topology, f, _, ratio) ->
               Json.Obj
                 [
                   ("topology", Json.Str topology);
                   ("leaves", Json.Num (float_of_int f.leaves));
                   ("flat_over_generic", Json.Num ratio);
                 ])
             (speedups rows)) );
    ]

let report ~quick =
  (* topology × engine cells are independent full-stack simulations, so
     they fan out on [pool] — with the usual caveat: concurrent cells
     contend for the machine, so parallel numbers are only comparable at
     the same -j; the committed baseline and [probe] run sequentially *)
  let pool = Parallel.Pool.create () in
  let target_pkts = default_target_pkts ~quick in
  let grid =
    List.concat_map
      (fun (topology, spec, pkt_bits) ->
        List.map
          (fun engine -> (topology, spec, pkt_bits, engine))
          [ Generic; Flat ])
      (topologies ~quick)
  in
  let rows =
    Parallel.Pool.map_list pool
      ~f:(fun (topology, spec, pkt_bits, engine) ->
        measure ~spec ~pkt_bits ~engine ~target_pkts ~topology ())
      grid
  in
  Printf.printf "%-18s %8s %10s %16s %12s\n" "topology" "leaves" "engine"
    "pkts/sec" "words/pkt";
  List.iter
    (fun r ->
      Printf.printf "%-18s %8d %10s %16.0f %12.3f\n" r.topology r.leaves
        (engine_name r.engine) r.pkts_per_sec r.minor_words_per_pkt)
    rows;
  Printf.printf "\n%-18s %8s %22s\n" "topology" "leaves" "flat/generic speedup";
  List.iter
    (fun (topology, f, _, ratio) ->
      Printf.printf "%-18s %8d %22.2fx\n" topology f.leaves ratio)
    (speedups rows);
  json_of_run ~quick rows

(* The guard's fresh side: the Fig. 3 headline on both engines. The
   measured flat/generic margin is modest (~1.1x on Fig. 3, ~1.3x on deep
   trees) because most of the per-packet cycle is simulator/fifo/heap
   work common to both engines; the flat engine's decisive win is
   allocation. *)
let probe ~quick =
  let target_pkts = default_target_pkts ~quick in
  let measure engine =
    measure ~spec:H.fig3 ~pkt_bits:H.fig3_packet_bits ~engine ~target_pkts
      ~topology:headline_topology ()
  in
  let flat = measure Flat in
  let generic = measure Generic in
  Json.Obj
    [
      ( "headline",
        Json.Obj
          [
            ("speedup", Json.Num (flat.pkts_per_sec /. generic.pkts_per_sec));
            ("flat_minor_words_per_pkt", Json.Num flat.minor_words_per_pkt);
            ("generic_minor_words_per_pkt", Json.Num generic.minor_words_per_pkt);
          ] );
    ]
