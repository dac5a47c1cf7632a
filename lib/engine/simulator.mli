(** Discrete-event simulation core (the NETSIM substitute).

    A simulator owns a virtual clock and a pending-event set. Events fire in
    non-decreasing time order; events scheduled for the same instant fire in
    the order they were scheduled (FIFO tie-break by sequence number), which
    keeps runs deterministic. Event handlers may schedule and cancel further
    events freely.

    The pending set is a Brown-style calendar queue ({!Calendar_queue}),
    amortized O(1) on timer-churn workloads. {!Slot_heap}, a binary heap
    under the same {!Event_set.S} contract, is its test reference: a
    lockstep differential drives both through identical op sequences and
    compares every answer. *)

type t

type event_id
(** Handle for cancellation. *)

val stale_id : event_id
(** An id that matches no event, past or future: {!cancel} on it is always
    a no-op. Useful as the initial value of a pre-sized id array. *)

val create : unit -> t
(** New simulator at time [0.] with an empty pending set. *)

val now : t -> float
(** Current virtual time in seconds. Starts at [0.]. *)

val schedule : t -> at:float -> (unit -> unit) -> event_id
(** Schedule a callback at absolute time [at].
    @raise Invalid_argument if [at] is in the past or NaN (a NaN time
    would fire in no defined order and could move the clock backwards). *)

val stream : t -> n:int -> time:(int -> float) -> (int -> unit) -> unit
(** [stream t ~n ~time action] behaves exactly as scheduling
    [fun () -> action k] at [time k] for [k = 0, 1, …, n - 1] in that
    order, now — same fire order against every other event (including
    ties at equal times), same clocks, and the same {!peek_time} seen from
    every handler — while holding only one of them pending at a time.

    How: install reserves the [n] consecutive sequence numbers that [n]
    {!schedule} calls would have taken, and entry [k] is keyed
    [(time k, base + k)], the very key {!schedule} would have given it.
    Entry [k + 1] is scheduled just before entry [k]'s action runs, so
    the earliest pending time during that action is what it would have
    been with all later entries waiting. Entries cannot be cancelled,
    and {!pending} counts the stream as one event until its last entry
    fires.

    [time] is an on-demand source: it is called once per entry, in order
    — [time 0] at install, [time (k + 1)] when entry [k] fires, before
    its action — so it can walk a cursor over a list. The simulator
    stores each time unboxed and keeps no per-entry state, so firing
    allocates nothing beyond what [time] and [action] do (a [time] that
    returns a float already boxed, such as a record field, allocates
    nothing).

    @raise Invalid_argument if [time 0] is NaN, infinite or before {!now};
    nothing is installed then. A later time is checked when it is drawn:
    if it is NaN, infinite or before the time of the entry that draws it,
    that entry raises [Invalid_argument] out of {!step} before its action
    runs, and the stream ends there. Callers that must refuse a bad
    sequence up front (as [Traffic.Trace.replay] does) validate it
    first. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> event_id
(** Schedule relative to [now]. Negative delays are rejected. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event; no-op if it already fired or was cancelled. *)

val pending : t -> int
(** Number of not-yet-fired, not-cancelled events. *)

(** {2 Burst-drain support}

    A handler that knows its next k actions (e.g. a backlogged link whose
    next departures are already determined) may execute them inline in one
    activation instead of scheduling k events, provided the observable
    outcome is identical. These three primitives carry the safety
    conditions: never act past the earliest pending event ({!peek_time}),
    never act past the horizon of an enclosing [run ~until]
    ({!run_horizon}), and move the clock explicitly ({!advance_clock}) so
    [now] reads during the inlined work match what the scheduled events
    would have seen. *)

val peek_time : t -> float
(** Fire time of the earliest live pending event, or [infinity] when the
    pending set is empty. Does not advance the clock. *)

val advance_clock : t -> to_:float -> unit
(** Move the clock forward to [to_] without firing anything.
    @raise Invalid_argument if [to_] is before [now] or NaN, or strictly past
    {!peek_time} (skipping a pending event would reorder history). *)

val run_horizon : t -> float
(** The [until] horizon of the innermost {!run} currently draining this
    simulator, or [infinity] when none is active (including [run] without
    [~until]). Burst-draining handlers must not act strictly past it. *)

val step : t -> bool
(** Fire the earliest pending event. Returns [false] if none remain. *)

val run : ?until:float -> t -> unit
(** Drain the event set; with [~until] stop once the next event would fire
    strictly after that time (the clock is then advanced to [until]).
    An event scheduled exactly at the horizon fires. *)

val events_processed : t -> int
(** Total events fired so far (monitoring / tests). *)

(** {2 Occupancy and structure statistics}

    Snapshot of the pending set's internals, surfaced so compaction and
    resize behaviour is observable in traces (see [Obs.Trace.sim_report]). *)

type stats = {
  live : int;  (** pending and not cancelled (= {!pending}) *)
  cancelled_in_set : int;
      (** cancelled entries still occupying the structure: garbage the
          next compaction reclaims; kept below the live count *)
  set_capacity : int;
      (** allocated extent of the ordering structure (calendar bucket
          count) *)
  pool_capacity : int;
      (** event-pool slots (free + in use), 40 bytes each: 16 at
          creation, doubling up to one page of {!Event_pool.page_size}
          (4,096), then one page at a time. Past one page it is the peak
          number of slots in use (pending events plus cancelled ones not
          yet reclaimed) rounded up to a page. *)
  compactions : int;  (** cancelled-entry sweeps triggered so far *)
  resizes : int;  (** structural resizes (calendar rebuilds) *)
}

val stats : t -> stats

(** {2 Observability}

    A probe sees the event loop's lifecycle: every schedule, fire, and
    effective cancel (stale cancels are invisible, as they change nothing).
    Probes power the tracing layer's real-time axis; [None] (the default)
    costs one branch per operation and allocates nothing. *)

type probe = {
  on_schedule : at:float -> now:float -> unit;
  (** An event was scheduled for absolute time [at] while the clock read
      [now]. *)
  on_fire : at:float -> unit;
  (** An event is about to fire; the clock has already advanced to [at]. *)
  on_cancel : at:float -> now:float -> unit;
  (** A live event destined for [at] was cancelled at [now]. *)
}

val set_probe : t -> probe option -> unit
(** Install or remove the probe. Replaces any previous probe. *)
