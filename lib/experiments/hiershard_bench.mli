(** Subtree-sharded hierarchy suite (bench id "hiershard").

    Runs ONE wide H-WF²Q+ hierarchy — 16 root-child subtrees of 4 leaves
    — through {!Hpfq.Hier_flat}'s epoch layer across a shards × epoch
    grid under an overloaded burst workload, against the sequential
    engine ([epoch = 1]) as reference. Two contracts are binding on every
    host: every [epoch = 1] rung's departure hash must equal the flat
    reference's, and each epoch's hash must be the same at every shard
    count — {!report} and {!probe} raise [Failure] on either divergence.

    Results go to [BENCH_hiershard.json]; every sync runs on the calling
    domain, so the guard holds every rung to a no-regression throughput
    floor vs the flat reference. The root sync is the
    sequential section, so the floor is "sharding must not cost more than
    the slack", not a linear speedup curve. *)

val report : quick:bool -> Bench_kit.Json.t
(** Measure the shards × epoch grid, each cell as same-run pairs against
    the flat reference ({!Bench_kit.Suite.pairs}), print the table and
    return the report: per cell its median [ratio_vs_flat], its hash and
    the pairs of rates ([pkts_per_sec]).
    @raise Failure if any [epoch = 1] rung diverges from the flat
    reference, or one epoch's hash differs across shard counts. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: one [rows] entry per cell, its throughput
    over the flat reference's as {!Bench_kit.Suite.pairs} ([pairs]), and
    the no-regression target 1.0 ([expected]). Runs the quick program
    when [quick]; raises like {!report}, on every run. *)
