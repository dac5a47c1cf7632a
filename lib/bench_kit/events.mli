(** Event-set churn benchmark backing `dune exec bench/main.exe -- events`.

    Measures the simulator's calendar-queue pending set on hold-model
    timer workloads — uniform, bursty, cancel-heavy (TCP retransmit-timer
    reset churn) and wide-horizon increment distributions — at
    steady-state populations up to 64k pending timers, then writes a
    machine-readable report (BENCH_events.json) with a cancel-heavy 64k
    headline. *)

type dist = Uniform | Bursty | Cancel_heavy | Wide_horizon

val dist_name : dist -> string
val all_dists : dist list

type row = {
  dist : dist;
  n : int;  (** steady-state pending timers *)
  events_per_sec : float;
  minor_words_per_event : float;  (** GC minor words per fired event *)
  fired : int;
  cancelled : int;  (** effective cancels issued by the workload *)
  compactions : int;  (** from [Simulator.stats] at the end of the run *)
  resizes : int;
}

val run_churn : dist:dist -> n:int -> events:int -> row
(** One deterministic churn run: [n] self-perpetuating timers re-arming
    until [events] fires are spent, then draining. The PRNG seed depends
    only on [(dist, n)]. *)

val report : quick:bool -> Json.t
(** Run the full grid (4 distributions x sizes), print a table, and
    return the report ([Suite.run] writes it).
    [quick] shrinks sizes/budgets to smoke-test levels. Cells fan out on
    [Parallel.Pool.create ()] (concurrent cells contend, so parallel
    numbers are only comparable at the same [-j]). *)

val probe : quick:bool -> Json.t
(** The guard's fresh side: the cancel-heavy headline
    [headline.calendar_events_per_sec] (64k timers; [quick]: 256). *)
