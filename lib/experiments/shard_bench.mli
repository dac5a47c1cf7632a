(** Multi-port device scaling suite (bench id "shard").

    Runs {!Shard.Device} — N independent H-WF²Q+ links replayed as a
    fork-join over worker domains — at 2/4/8 workers over a links grid,
    each rung as same-run pairs of aggregate packet rates against the
    1-worker run ({!Bench_kit.Suite.pairs}). Every run's [device_hash]
    must equal the first one's for the same links count (the device's
    determinism contract, checked on the real workload); any diff fails
    the suite hard.

    Results go to [BENCH_shard.json]; the guard holds the cores-scaled
    speedup floor shared with the parallel suite
    ({!Parallel_bench.expected_floor}). *)

val report : quick:bool -> Bench_kit.Json.t
(** Measure the links × jobs grid (2 M packets per run; [quick]: 16
    links, 20k packets), print the table and return the report: per
    rung the median [speedup], the floor, the device hash and the pairs
    of rates ([pkts_per_sec]).
    @raise Failure if any run's device hash diverges from the first. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: one [rows] entry per links count and
    {!Parallel_bench.gated_rungs} rung, with its pairs of rates
    ([pairs]) and the cores-aware floor ([expected]). Runs the quick
    grid when [quick] or on a host with fewer than 2 cores.
    @raise Failure like {!report}. *)
