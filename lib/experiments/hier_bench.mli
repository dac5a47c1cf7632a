(** Hierarchy engine A/B benchmark backing `dune exec bench/main.exe -- hier`.

    Measures end-to-end saturated throughput of the generic H-PFQ server
    ({!Hpfq.Hier}) against the flattened monomorphic engine
    ({!Hpfq.Hier_flat}) — same H-WF2Q+ algorithm, bit-identical schedules
    — on the paper's Fig. 3 topology and balanced trees of depth 2/4/6 up
    to 4096 leaves, then writes a machine-readable report
    (BENCH_hier.json) with per-topology flat/generic speedups and a
    Fig. 3 headline. *)

val report : quick:bool -> Bench_kit.Json.t
(** Run the full grid (topology × both engines), print a table plus
    speedups, and return the report. [quick] shrinks the grid and packet
    budget to smoke-test levels. Cells fan out on [Parallel.Pool.create ()]
    (concurrent cells contend, so parallel numbers are only comparable at
    the same [-j]). *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: [flat_over_generic], {!Bench_kit.Suite.pairs}
    of the two engines' rates on the balanced depth-4 fan-out-8 tree (4096
    leaves; [quick]: fan-out 2), and the flat engine's Fig. 3
    [headline.flat_minor_words_per_pkt]. *)
