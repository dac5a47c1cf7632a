(** Multi-port device scaling suite (bench id "shard").

    Runs {!Shard.Device} — N independent H-WF²Q+ links replayed as a
    fork-join over worker domains — across a jobs ladder and a links
    grid (the full grid sized so every 1-worker rung runs over 1 s), and reports aggregate packet throughput and
    speedup vs the 1-worker run. Every rung's [device_hash] must equal
    the 1-worker hash for the same grid point (the device's determinism
    contract, checked on the real workload); any diff fails the suite
    hard.

    Results go to [BENCH_shard.json]; the guard holds the cores-scaled
    speedup floor shared with the parallel suite
    ({!Parallel_bench.expected_floor}). *)

val report : quick:bool -> Bench_kit.Json.t
(** Measure the links × jobs grid (best of 2 runs per rung; [quick]: 16
    links, one run), print the table and return the report.
    @raise Failure if any rung's device hash diverges from the 1-worker
    reference. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: one [rows] entry per (links, jobs) rung with
    its speedup ([value]), the cores-aware floor ([expected]) and whether
    the rung fits the host's cores ([enforced]). Runs the quick grid when
    [quick] or on a host with fewer than 2 cores. *)
