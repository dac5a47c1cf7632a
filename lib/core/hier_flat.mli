(** H-WF²Q+ fast path: the {!Hier} algorithm monomorphized over
    {!Wf2q_plus}, with every piece of state flattened into unboxed arrays.

    Same semantics as
    [Hier.create ~make_policy:(Hier.uniform Wf2q_plus.factory)] — the ARRIVE
    / RESTART-NODE / RESET-PATH procedures of paper §4 over eq. 27/28/29
    one-level nodes, identical {!Sched.Float_cmp} slack and the same
    [(F_i, slot)] tie order — so the two engines produce
    bit-identical departure orders and clocks (enforced by the qcheck
    lockstep differential in the test suite). What changes is the machine
    shape: per-node fields are struct-of-arrays indexed by node id, every
    interior node is one node of a {!Wf2q_kernel} (the code {!Wf2q_plus}
    runs as a one-node instance), leaf→root paths are precomputed, and
    every policy operation is a direct static call instead of a
    {!Sched.Sched_intf.t} closure — no boxed floats at call boundaries, no
    per-call observer record chasing.

    Use this engine for WF²Q+-at-every-node trees (the paper's headline
    system); mixed-discipline hierarchies still go through the generic
    {!Hier}. The {!Hier_engine} facade picks automatically.

    Both engines number nodes through the same {!Hier_tree} index, so ids,
    names, and per-node counters line up across engines.

    Packets live in a per-hierarchy {!Net.Packet_pool}; the engine moves
    immediate int handles and a boxed {!Net.Packet.t} is materialised only
    inside the boxed hook wrappers.

    {2 The epoch layer}

    The same engine also runs the root's WF²Q+ in epochs. Arrivals are
    staged in one buffer, and a sync integrates them in arrival order
    through the normal ARRIVE / RESTART-NODE code. [epoch] selects the
    regime:

    - [epoch = 1] (default): nothing is staged — the sequential engine.
    - [epoch = k > 1]: arrivals landing while the link transmits are
      staged; at latest every [k-1] departures — and always before the link
      would go idle — a sync integrates them and applies each root child's
      new head to the root in canonical slot order. Per-session service lag
      vs the sequential schedule is bounded by [(k-1) * l_max / r]
      ({!Theory.epoch_lag_bound}). The drops a sync accounts reach
      [on_drop] after its root update, in staging order. Lifecycle
      operations and state accessors run a sync first, so they observe
      every staged arrival.

    {!Hier_engine} has no choice that turns the layer on: callers build it
    here (the [shard] library's adapter does, for [benchmark/]). *)

type t

val create :
  sim:Engine.Simulator.t ->
  spec:Class_tree.t ->
  ?root_clock:[ `Real_time | `Reference_time ] ->
  ?on_depart:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?on_drop:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?burst_max:int ->
  ?epoch:int ->
  unit ->
  t
(** Every interior node runs WF²Q+ over its children; [root_clock] has the
    same meaning as in {!Hier.create}, [burst_max] (default 1) as in
    {!Server.create} — the burst rule of {!Link}: departure times, stamps
    and callback order are bit-identical at every setting.

    The epoch layer: [epoch] (default [1]) is the root sync period in
    departures. The buffer stages at most 256 arrivals, and a full buffer
    forces an early sync. Every sync runs on the calling domain.
    @raise Invalid_argument if {!Hier_tree.create} rejects [spec] (it
    fails {!Class_tree.validate}, or its root is a leaf), [burst_max < 1]
    or [epoch < 1]. *)

val epoch : t -> int

val sync_rounds : t -> int
(** Number of epoch syncs that integrated at least one staged arrival
    (always [0] at [epoch = 1]). *)

val set_burst_max : t -> int -> unit
(** Change the burst cap; takes effect from the next drain activation.
    @raise Invalid_argument if the argument is [< 1]. *)

val burst_max : t -> int

val pool : t -> Net.Packet_pool.t
(** The hierarchy's packet arena (to read fields of a handle inside a
    [_handle_] hook, or to materialise a boxed view). Only the engine
    allocates and frees its handles. *)

val inject : ?mark:int -> t -> leaf:Hier_tree.leaf -> size_bits:float -> Net.Packet_pool.handle
(** Same contract as {!Hier.inject}: returns the packet's pool handle; if
    the queue was full the drop callback has already fired and the handle
    is already recycled (stale).
    @raise Invalid_argument if the leaf is closed or closing. *)

val inject_many : ?mark:int -> t -> leaf:Hier_tree.leaf -> size_bits:float -> count:int -> unit
(** [count] same-size packets arrive back to back at the current simulation
    time. After the first packet the subtree already has a logical head, so
    each further packet is one FIFO push plus one (observer-only) arrive —
    the batched form of the common backlog-building loop.
    @raise Invalid_argument if the leaf is closed or closing, or [count] is
    negative — also when [count = 0]. *)

val close_leaf : t -> leaf:Hier_tree.leaf -> policy:Sched.Sched_intf.close_policy -> unit
(** Same contract as {!Hier.close_leaf}: idle leaves close immediately,
    [`Drain] keeps the schedule place until the queue empties, [`Drop]
    hands queued packets to the drop callback and retracts the committed
    head from every ancestor (the wire packet, if it is this leaf's,
    always finishes and completes the close at departure). *)

val reopen_leaf : ?rate:float -> t -> leaf:Hier_tree.leaf -> unit
(** Same contract as {!Hier.reopen_leaf}: re-opens a closed leaf in place
    with fresh WF²Q+ stamps, optionally at a new [rate]. *)

val leaf_state : t -> leaf:Hier_tree.leaf -> [ `Open | `Closing | `Closed ]

val queue_bits : t -> leaf:Hier_tree.leaf -> float
val departed_bits : t -> node:string -> float
val ref_time : t -> node:string -> float

val node_virtual_time : t -> node:string -> float
(** @raise Invalid_argument if the named node is a leaf. *)

val link_busy : t -> bool
val drops : t -> int

val held_packets : t -> int
(** Packets queued at the leaves or staged for the next sync. As in
    {!Hier.held_packets}, the packet on the wire is among them until its
    departure hooks have run. O(nodes). *)

(** {2 The tree}

    Ids, names, paths and the leaf hooks come from the engine's
    {!Hier_tree} index and hook set, as for {!Hier}. *)

include Hier_tree.SURFACE with type engine := t

(** {2 Observability}

    A per-node {!Sched.Sched_intf.observer} slot at each interior node.
    With no observer installed the per-operation cost is one array load
    and a branch. *)

val set_node_observer_id : t -> node:int -> Sched.Sched_intf.observer option -> unit
(** Install or remove an observer on interior node [node] (an id, as
    handed to {!iter_interior}).
    @raise Invalid_argument if the node is a leaf, or when installing an
    observer at [epoch > 1]: a staged arrival's backlog and requeue events
    would fire at the sync, not when the packet arrived.
    Clearing is always allowed. *)

val set_node_observer : t -> node:string -> Sched.Sched_intf.observer option -> unit
(** The same, by name.
    @raise Not_found if no such node. *)
