(* Hierarchy engine A/B benchmark (bench id "hier").

   The generic H-PFQ server (Hpfq.Hier) composes boxed one-level policies
   behind first-class function records; the flattened engine
   (Hpfq.Hier_flat) runs the same H-WF2Q+ algorithm over unboxed arrays
   with direct static calls — bit-identical schedules (the lockstep
   property test proves it), different constant factors. This suite
   measures both engines end to end — saturated steady state, every leaf
   at a two-packet backlog — on the paper's Fig. 3 topology and on
   balanced trees of depth 2/4/6 up to 4096 leaves. Each topology is one
   row of BENCH_hier.json: the flat engine's rate over the generic one's
   as same-run pairs, with both engines' allocation, and Fig. 3's row is
   the headline. [probe] measures the balanced_d4_f8 row for the ratio
   guard and one flat run on Fig. 3 for the flat engine's allocation
   ceiling; the flat engine's own throughput is benchmark/'s tree_4k_d6
   workload. *)

module H = Paper_hierarchies
module Perf = Bench_kit.Perf
module Json = Bench_kit.Json
module Suite = Bench_kit.Suite

(* Each cell: (label, spec, pkt_bits). Fig. 3 runs with the paper's 8 KB
   packets at its real rates; balanced trees use rate 1 and 1-bit packets
   so the horizon equals the departure count. *)
let balanced ~depth ~fanout =
  ( Printf.sprintf "balanced_d%d_f%d" depth fanout,
    Perf.uniform_spec ~depth ~fanout ~name:"root" ~rate:1.0,
    1.0 )

let fig3 = ("fig3", H.fig3, H.fig3_packet_bits)

(* The guard's row: the deep 4096-leaf tree, where the generic engine's
   per-level dispatch adds up (~2x); on Fig. 3 most of the per-packet
   cycle is simulator, fifo and heap work common to both engines, so its
   ratio (~1.1x) sits at the noise floor. *)
let gated ~quick = balanced ~depth:4 ~fanout:(if quick then 2 else 8)

let topologies ~quick =
  if quick then [ fig3; balanced ~depth:2 ~fanout:4 ]
  else
    [
      fig3;
      balanced ~depth:2 ~fanout:8 (* 64 leaves *);
      balanced ~depth:2 ~fanout:64 (* 4096 leaves *);
      balanced ~depth:4 ~fanout:4 (* 256 leaves *);
      gated ~quick (* 4096 leaves *);
      balanced ~depth:6 ~fanout:2 (* 64 leaves *);
      balanced ~depth:6 ~fanout:4 (* 4096 leaves *);
    ]

type row = {
  topology : string;
  leaves : int;
  pairs : Json.t;  (** flat over generic pkts/s *)
  flat_words : float;
  generic_words : float;
}

(* One saturated run: (leaf count, packets/second, minor words/packet). *)
let run ~quick ~engine (_, spec, pkt_bits) =
  Perf.hier_throughput_spec ~engine ~spec ~factory:Hpfq.Disciplines.wf2q_plus ~pkt_bits
    ~target_pkts:(if quick then 500 else 100_000)
    ()

(* One topology, the report's row and the guard's: the two engines'
   saturated rates as same-run pairs, and each engine's minor words per
   packet (the same in every run). *)
let row ~quick ((topology, _, _) as cell) =
  let leaves = ref 0 and flat_words = ref nan and generic_words = ref nan in
  let rate engine words () =
    let n, pps, w = run ~quick ~engine cell in
    leaves := int_of_float n;
    words := w;
    pps
  in
  let pairs = Suite.pairs ~num:(rate `Flat flat_words) ~den:(rate `Generic generic_words) () in
  {
    topology;
    leaves = !leaves;
    pairs;
    flat_words = !flat_words;
    generic_words = !generic_words;
  }

let headline r =
  Json.Obj
    [
      ("workload", Json.Str (r.topology ^ "_saturated"));
      ("flat_over_generic", Json.Num (Suite.ratio r.pairs));
      ("flat_minor_words_per_pkt", Json.Num r.flat_words);
      ("generic_minor_words_per_pkt", Json.Num r.generic_words);
    ]

let row_json r =
  Json.Obj
    [
      ("topology", Json.Str r.topology);
      ("leaves", Json.Num (float_of_int r.leaves));
      ("flat_over_generic", Json.Num (Suite.ratio r.pairs));
      ("flat_minor_words_per_pkt", Json.Num r.flat_words);
      ("generic_minor_words_per_pkt", Json.Num r.generic_words);
      ("pkts_per_sec", r.pairs);
    ]

(* Topologies run one after another: pairs must not share the machine
   with another cell. *)
let report ~quick =
  Printf.printf "%-18s %8s %12s %12s %12s\n" "topology" "leaves" "flat/generic"
    "flat w/pkt" "generic w/pkt";
  let rows =
    List.map
      (fun t ->
        let r = row ~quick t in
        Printf.printf "%-18s %8d %11.2fx %12.3f %12.3f\n%!" r.topology r.leaves
          (Suite.ratio r.pairs) r.flat_words r.generic_words;
        r)
      (topologies ~quick)
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-hier-v2");
      ("bench", Json.Str "hier");
      ("quick", Json.Bool quick);
      ("headline", headline (List.hd rows));
      ("rows", Json.Arr (List.map row_json rows));
    ]

(* The guard's fresh side: the gated row's pairs, and one flat run on
   Fig. 3 for the flat engine's allocation ceiling. *)
let probe ~quick =
  let _, _, words = run ~quick ~engine:`Flat fig3 in
  Json.Obj
    [
      ("flat_over_generic", (row ~quick (gated ~quick)).pairs);
      ("headline", Json.Obj [ ("flat_minor_words_per_pkt", Json.Num words) ]);
    ]
