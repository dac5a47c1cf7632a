(** Hierarchy engine A/B benchmark backing `dune exec bench/main.exe -- hier`.

    Measures end-to-end saturated throughput of the generic H-PFQ server
    ({!Hpfq.Hier}) against the flattened monomorphic engine
    ({!Hpfq.Hier_flat}) — same H-WF2Q+ algorithm, bit-identical schedules
    — on the paper's Fig. 3 topology and balanced trees of depth 2/4/6 up
    to 4096 leaves. Each topology is one row: flat over generic as
    {!Bench_kit.Suite.pairs}, and both engines' minor words/packet. *)

val report : quick:bool -> Bench_kit.Json.t
(** Measure every topology in turn, print a table, and return the report
    (BENCH_hier.json), headlined by Fig. 3's row. [quick] shrinks the
    grid and packet budget to smoke-test levels. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: [flat_over_generic], the pairs of the
    report's balanced depth-4 fan-out-8 row (4096 leaves; [quick]:
    fan-out 2), and [headline.flat_minor_words_per_pkt] from the Fig. 3
    row. *)
