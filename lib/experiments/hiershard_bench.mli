(** Subtree-sharded hierarchy suite (bench id "hiershard").

    Runs ONE wide H-WF²Q+ hierarchy — 16 root-child subtrees of 4 leaves
    — through {!Hpfq.Hier_flat}'s epoch layer across a shards × epoch
    grid under an overloaded burst workload, against the sequential
    engine ([epoch = 1]) as reference. Two contracts are binding on every
    host, even single-core: every [epoch = 1] rung's departure hash must
    equal the flat reference's, and every [epoch > 1] rung must be
    worker-count invariant (the same cell re-run with inline flushes must hash
    identically) — {!report} and {!probe} raise [Failure] on either
    divergence.

    Results go to [BENCH_hiershard.json]; the guard holds every rung
    whose coordinator + workers fit the host's cores to a no-regression
    throughput floor vs the flat reference. The root sync is the
    sequential section, so the floor is "sharding must not cost more than
    the slack", not a linear speedup curve. *)

val report : quick:bool -> Bench_kit.Json.t
(** Measure the shards × epoch grid, print the table and return the
    report.
    @raise Failure if any [epoch = 1] rung diverges from the flat
    reference, any [epoch > 1] rung is not worker-invariant, or one
    epoch's hash differs across shard counts. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: one [rows] entry per cell with its
    throughput ratio to the flat reference ([value]), the no-regression
    target 1.0 ([expected]) and whether coordinator + workers fit the
    host's cores ([enforced]). Runs the quick grid when [quick] or on a
    host with fewer than 2 cores; raises like {!report}. *)
