(** Global FIFO across sessions: serve packets strictly in arrival order,
    ignoring rates. The no-isolation baseline for fairness benches. *)

val factory : Sched_intf.factory
