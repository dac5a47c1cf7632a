(** Multicore scaling suite backing `dune exec bench/main.exe -- parallel`.

    Runs the wfi discipline × session-count sweep grid under
    {!Parallel.Pool}s of 2/4/8 workers, each rung as same-run pairs
    against [-j1] ({!Bench_kit.Suite.pairs}), cross-checks that every
    sweep produces bit-identical measurements to the first (the pool's
    determinism contract, enforced on a real workload), and writes the
    median speedups to [BENCH_parallel.json] together with the host's
    core count — speedup is a property of the machine, so the number
    only means something next to [cores]. *)

val jobs_ladder : int list
(** The rungs: 2, 4 and 8 jobs. *)

val expected_floor : cores:int -> jobs:int -> float
(** The speedup a healthy pool should reach at [-j jobs] on a host with
    [cores] cores: 1.7x at an effective 2 workers, 3x at 8 (linear
    between the anchors), where effective = [min jobs cores] —
    oversubscribing a small host is expected to buy nothing, not
    punished. *)

val gated_rungs : cores:int -> int list
(** The rungs the guard gates on a host with [cores] cores: 2 jobs up to
    the cores (just 2 on a 1-core host, whose floor is 1x). *)

val report : quick:bool -> Bench_kit.Json.t
(** Measure every rung (each sweep maps the grid 16 times over, so a
    [-j1] sweep lasts over 1 s; [quick] maps the small grid once), print
    the table and return the report: per rung its median [speedup],
    {!expected_floor} and the pairs of sweep rates ([sweeps_per_sec]).
    @raise Failure if any sweep's results diverge from the first. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: one [rows] entry per {!gated_rungs} rung,
    its pairs of sweep rates ([pairs]) and its {!expected_floor}
    ([expected]). Runs the quick grid when [quick] or on a host with
    fewer than 2 cores.
    @raise Failure like {!report}. *)
