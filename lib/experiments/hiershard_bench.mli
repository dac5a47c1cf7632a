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
(** Measure the shards × epoch grid, print the table and return the
    report.
    @raise Failure if any [epoch = 1] rung diverges from the flat
    reference, or one epoch's hash differs across shard counts. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: one [rows] entry per cell with its
    throughput ratio to the flat reference ([value]), the no-regression
    target 1.0 ([expected]) and [enforced] true. Runs the quick grid when
    [quick]; raises like {!report}. *)
