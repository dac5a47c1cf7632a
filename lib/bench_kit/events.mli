(** Event-set churn benchmark backing `dune exec bench/main.exe -- events`.

    Drives both {!Engine.Event_set.S} implementations — the simulator's
    calendar queue and the reference slot heap — over an
    {!Engine.Event_pool} on hold-model timer workloads: uniform, bursty,
    cancel-heavy (TCP retransmit-timer reset churn) and wide-horizon
    increment distributions, at steady-state populations up to 64k
    pending timers. Writes a machine-readable report (BENCH_events.json)
    with a cancel-heavy 64k calendar/heap headline. *)

type dist = Uniform | Bursty | Cancel_heavy | Wide_horizon

val dist_name : dist -> string
val all_dists : dist list

type set = (module Engine.Event_set.S)

val calendar : set
(** {!Engine.Calendar_queue}, the simulator's set. *)

val heap : set
(** {!Engine.Slot_heap}, its test reference. *)

type run = {
  events_per_sec : float;
  minor_words_per_event : float;  (** GC minor words per fired event *)
  fired : int;
  compactions : int;
  resizes : int;  (** the set's own structural resizes *)
}

val hold : set -> dist:dist -> n:int -> events:int -> run
(** One deterministic hold-model run on one set: [n] self-perpetuating
    timers re-arming until [events] fires are spent, then draining.
    Cancels are pool state flips, and the set is compacted once
    cancelled entries outnumber live ones, as the simulator does. The
    PRNG seed depends only on [(dist, n)], so both sets see the same
    timers. *)

val report : quick:bool -> Json.t
(** Run the full grid (4 distributions x sizes, both sets back to back
    per cell, cells one after another), print a table, and return the
    report ([Suite.run] writes it). [quick] shrinks sizes/budgets to
    smoke-test levels. *)

val probe : quick:bool -> Json.t
(** The guard's fresh side: [calendar_over_heap], {!Suite.pairs} of the
    cancel-heavy calendar and heap rates (64k timers; [quick]: 256). *)
