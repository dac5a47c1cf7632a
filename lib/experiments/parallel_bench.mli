(** Multicore scaling suite backing `dune exec bench/main.exe -- parallel`.

    Runs the wfi discipline × session-count sweep grid under
    {!Parallel.Pool}s of 1/2/4/8 workers, cross-checks that every rung
    produces bit-identical measurements to the [-j1] reference (the
    pool's determinism contract, enforced on a real workload), and
    writes wall-clock / speedup rows to [BENCH_parallel.json] together
    with the host's core count — speedup is a property of the machine,
    so the number only means something next to [cores]. *)

val expected_floor : cores:int -> jobs:int -> float
(** The speedup a healthy pool should reach at [-j jobs] on a host with
    [cores] cores: 1.7x at an effective 2 workers, 3x at 8 (linear
    between the anchors), where effective = [min jobs cores] —
    oversubscribing a small host is expected to buy nothing, not
    punished. *)

val report : quick:bool -> Bench_kit.Json.t
(** Measure the ladder (each rung maps the grid 16 times over, so the
    [-j1] rung lasts over 1 s; best of 3 runs per rung; [quick] maps the
    small grid once and runs once), print the table and return the
    report.
    @raise Failure if any rung's results diverge from the [-j1]
    reference. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: one [rows] entry per rung with its speedup
    ([value]), {!expected_floor} ([expected]) and whether the rung fits
    the host's cores ([enforced]). Runs the quick grid when [quick] or on
    a host with fewer than 2 cores. *)
