(** Event-set churn benchmark backing `dune exec bench/main.exe -- events`.

    Drives both {!Engine.Event_set.S} implementations — the simulator's
    calendar queue and the reference slot heap — over an
    {!Engine.Event_pool} on hold-model timer workloads: uniform, bursty,
    cancel-heavy (TCP retransmit-timer reset churn) and wide-horizon
    increment distributions, at steady-state populations up to 64k
    pending timers. Each (distribution, population) cell is one row: the
    calendar's hold rate over the heap's as {!Suite.pairs}. *)

val report : quick:bool -> Json.t
(** Measure every cell in turn, print a table, and return the report
    ([Suite.run] writes it) with the cancel-heavy 64k ratio as its
    headline. [quick] shrinks sizes/budgets to smoke-test levels. *)

val probe : quick:bool -> Json.t
(** The guard's fresh side: [calendar_over_heap], the report's
    cancel-heavy cell at 64k timers ([quick]: 256). *)
