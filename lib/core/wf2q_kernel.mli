(** The WF²Q+ building block (paper §3.4), written once.

    One value holds the WF²Q+ state of any number of one-level nodes over
    flat arenas: per node, V and its timestamp, the backlogged count and
    an observer slot; per (node, slot), at arena index
    [sbase.(node) + slot], the session rate, [S_i], [F_i], the head size
    and a state byte. {!Wf2q_plus} and {!Wf2q_plus_stamped} are one-node
    instances; {!Hier_flat} runs one node per interior tree node (§4:
    one-level servers as building blocks).

    How a node files its backlogged slots is fixed at {!create} by its
    slot count, never by an option:
    - a node created with 1 to {!scan_max} slots scans: each slot's state
      byte says idle, eligible ([S_i ≤ V]) or waiting, the filing
      primitives write only that byte, and {!select} scans the node's
      slots;
    - any other node keeps an eligible (keyed by [F_i]) and a waiting
      (keyed by [S_i]) {!Prioq.Indexed_heap4}. One-node instances are
      created with 0 slots and grown, so they always keep the heaps.

    Both filings select the same slot, [F_i] ties going to the lowest
    slot, so a schedule does not depend on which one a node runs.

    Every operation takes a node id and a slot. The float-taking
    primitives are [[@inline]]: without flambda a float argument to a call
    that is not inlined is boxed on the minor heap, so inlining keeps
    [now], [head_bits] and the eq. 27 threshold unboxed in release builds.
    Observer events fire from the primitives, stamped with [V(now)]; the
    [arrive] event has no state change and stays with the caller
    ({!observer}).

    The primitives check nothing: callers validate slots and the driving
    protocol. *)

type t

val scan_max : int
(** 8: a node created with [1..scan_max] slots scans, any other keeps
    heaps. *)

val create : rate:float array -> slots:int array -> t
(** [create ~rate ~slots]: one node per index, with server rate [rate.(n)]
    and [slots.(n)] session slots (0 for a hierarchy's leaves); a node of
    1 to {!scan_max} slots scans, any other keeps heaps. [rate] is kept,
    not copied. Slot rates start at 0: open each slot with
    {!reset_slot}. *)

val grow : t -> int -> unit
(** [grow k n] makes the arenas hold at least [n] slots. Only for one-node
    instances created with 0 slots, whose sessions open dynamically. *)

val observer : t -> int -> Sched.Sched_intf.observer option
val set_observer : t -> int -> Sched.Sched_intf.observer option -> unit
val backlogged_count : t -> int -> int
val is_backlogged : t -> int -> int -> bool

val linear_v : t -> int -> now:float -> float
(** [V(now)]: the [V(t)+τ] term of eq. 27, linear through the post-dated
    span and any idle gap after it. *)

val backlog : t -> int -> int -> now:float -> head_bits:float -> unit
(** eq. 28, empty-queue branch: [S = max(F, V(now))],
    [F = S + head_bits/r_i]; marks the slot backlogged and files it. *)

val requeue : t -> int -> int -> now:float -> head_bits:float -> unit
(** eq. 28, busy branch: [S = F], [F = S + head_bits/r_i]; an in-place
    increase-key while the slot stays eligible. On a heap node, when the
    slot leaves the eligible set from its root and the waiting head [x]
    has [S_x ≤ V(now)] (exact float [<=], no {!Sched.Float_cmp} slack),
    the two swap places, one [replace_min] per heap: the next {!select}
    would have promoted [x] anyway, so every selection and every V stays
    the same. That holds because V moves only in {!select} and the
    caller's clock never runs backwards: the next {!select} on the node
    takes a [now] no earlier than this one's. *)

val set_idle : t -> int -> int -> now:float -> unit
(** The slot emptied: unmark and unfile it. *)

val remove : t -> int -> int -> unit
(** The [`Drop] close: unfile a backlogged slot, firing no observer
    event. No-op on an idle slot. *)

val reset_slot : t -> int -> int -> rate:float -> unit
(** Fresh-session state: rate [r_i], [S = F = 0], idle. *)

val select : t -> int -> now:float -> int
(** eq. 27 threshold [max(V(now), min S)], promotion of the waiting
    sessions it makes eligible, SEFF pick of the lowest [(F_i, slot)]
    (the eligible heap's minimum, or found by the scan), then
    RESTART-NODE lines 12–13: V and its timestamp are post-dated by the
    selected head's [L/r_n].
    Returns the slot, or [-1] when nothing is backlogged. *)

(** {2 Pre-stamped heads} — for callers that compute [(S, F)] themselves
    ({!Wf2q_plus_stamped}). *)

val set_stamps : t -> int -> int -> start:float -> finish:float -> unit
(** Write the head's [(S, F)]; its size is recovered as [(F − S)·r_i]. *)

val enqueue : t -> int -> int -> now:float -> head_bits:float -> unit
(** Mark a slot with stamps in place backlogged and file it ([head_bits]
    is the observer payload). *)

val place : t -> int -> int -> unit
(** File a slot by its stamps: eligible if [S ≤ V] (with
    {!Sched.Float_cmp} slack), else waiting; into a heap, or on a scan
    node into the slot's state byte. *)

val unplace : t -> int -> int -> unit
(** Remove a slot from both heaps of a heap node. A scan node has no
    heaps and files by the state byte alone, which the {!place},
    {!set_idle} or {!remove} that follows rewrites, so there it does
    nothing. *)
