(** WF²Q+ on fixed-point virtual time (scaled-integer ticks).

    Same algorithm as {!Wf2q_plus} — eq. 27's
    [V(t+τ) = max(V(t)+τ, min S)], eq. 28's two stamping branches, SEFF
    selection with RESTART-NODE post-dating — but every virtual-time
    quantity is an integer count of ticks, [2^shift] ticks per
    vtime-second ({!Sched.Fixed.shift} = 20; see {!Sched.Fixed}):

    - each session's inverse rate is quantized {e once} at [open_session]
      to an integer ticks-per-bit; stamp updates are then exact integer
      adds, so the engine never accumulates per-packet rounding — a float
      engine's [Σ L/r] drifts with the horizon, this one is bit-stable
      forever (within the [2^(62-shift)]-vtime-second overflow horizon);
    - eligibility ([S ≤ V]) and min-F comparisons are exact: the
      eligible and waiting sets are {!Prioq.Indexed_heap4}s keyed by each
      stamp's bit pattern ({!Sched.Fixed.prio}), which orders nonnegative
      ticks exactly as the ints do, and the [S ≤ V] test reads the ticks
      back; no {!Sched.Float_cmp} slack anywhere on the hot path;
    - packet sizes are rounded to whole bits at the interface (the driving
      protocol carries float bits for historical reasons).

    Floats survive only at two boundaries: real time [now] (interpolated
    into ticks across idle gaps) and the observer/stats edge, where tick
    counts convert back to float vtime so the [lib/obs] schemas are
    unchanged.

    The generic float engine remains the cross-checked reference; the
    differential test drives both on dyadic-rate traces where their
    departure orders must agree exactly. *)

type t

val create : rate:float -> t
(** [create ~rate] builds an engine for a server of [rate] bits per
    second of server time.
    @raise Invalid_argument if [rate <= 0]. *)

val policy : t -> Sched.Sched_intf.t
(** The engine as a one-level building block (name ["WF2Q+fx"]). *)

val v_ticks : t -> int
(** Raw fixed-point virtual time, for drift instrumentation: the soak
    harness compares this (exact) accumulator against a closed-form
    integer recomputation and against the float reference engine. *)

val make : rate:float -> Sched.Sched_intf.t
(** [create] + [policy]. *)

val factory : Sched.Sched_intf.factory
