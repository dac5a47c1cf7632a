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

    Node ids are assigned in the same preorder as {!Hier.create}, so ids,
    names, and per-node counters line up across engines.

    Packets live in a per-hierarchy {!Net.Packet_pool}; the engine moves
    immediate int handles and a boxed {!Net.Packet.t} is materialised only
    inside the boxed hook wrappers.

    {2 The epoch layer}

    The same engine also runs the root's WF²Q+ in epochs. Interior nodes
    run eq. 27–29 on their post-dated reference clocks [T_n] — only the
    root reads the simulator — so a root-child subtree's state is a pure
    function of the operations applied to it, and the preorder numbering
    makes each such subtree a contiguous node-id range. Shards own disjoint
    index regions of the arenas; a sync integrates each shard's staged
    arrivals through the normal ARRIVE / RESTART-NODE code, on the calling
    domain. [epoch] selects the regime:

    - [epoch = 1] (default): nothing is staged — the sequential engine at
      any shard count.
    - [epoch = k > 1]: arrivals landing while the link transmits are
      staged; at latest every [k-1] departures — and always before the link
      would go idle — a sync integrates them and applies each root child's
      new head to the root in canonical slot order. Per-session service lag
      vs the sequential schedule is bounded by [(k-1) * l_max / r]
      ({!Theory.epoch_lag_bound}); across shard counts only the order of
      the drops accounted at one sync may move. Lifecycle operations and
      state accessors run a sync first, so they observe every staged
      arrival. *)

type t

val create :
  sim:Engine.Simulator.t ->
  spec:Class_tree.t ->
  ?root_clock:[ `Real_time | `Reference_time ] ->
  ?on_depart:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?on_drop:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?burst_max:int ->
  ?shards:int ->
  ?workers:int ->
  ?epoch:int ->
  unit ->
  t
(** Every interior node runs WF²Q+ over its children; [root_clock] has the
    same meaning as in {!Hier.create}, [burst_max] (default 1) as in
    {!Server.create} — the burst rule of {!Link}: departure times, stamps
    and callback order are bit-identical at every setting.

    The epoch layer: [epoch] (default [1]) is the root sync period in
    departures. [shards] (default: one per root child) is clamped to the
    number of root children; each shard stages at most 256 arrivals, and a
    full shard forces an early sync. [workers] (default [0]) is validated
    and has no effect: every sync flushes inline on the calling domain,
    because a sync stages too few arrivals to pay for a handoff to a
    worker Domain, and no Domain is spawned.
    @raise Invalid_argument if [spec] fails {!Class_tree.validate}, its
    root is a leaf, [burst_max < 1], [shards < 1], [workers] is outside
    [0 .. ]{!Parallel.Pool.max_jobs} or [epoch < 1]. *)

val shutdown : t -> unit
(** A no-op: the engine holds no worker Domain. It stays usable, and
    later syncs keep the same schedule. *)

val shards : t -> int
(** Effective shard count after clamping. *)

val epoch : t -> int

val sync_rounds : t -> int
(** Number of epoch syncs that integrated at least one staged arrival
    (always [0] at [epoch = 1]). *)

val node_shard : t -> int -> int
(** Owning shard of a node id; [-1] for the root (coordinator-owned). *)

val set_burst_max : t -> int -> unit
(** Change the burst cap; takes effect from the next drain activation.
    @raise Invalid_argument if the argument is [< 1]. *)

val burst_max : t -> int

val leaf_id : t -> string -> Hier.leaf
(** Leaf identities share {!Hier.leaf}, so code written against one engine
    (or the {!Hier_engine} facade) type-checks against the other.
    @raise Not_found if no node has that name.
    @raise Invalid_argument if the name belongs to an interior node. *)

val leaf_name : t -> Hier.leaf -> string
val leaf_ids : t -> (string * Hier.leaf) list

val pool : t -> Net.Packet_pool.t
(** The hierarchy's packet arena (to read fields of a handle inside a
    [_handle_] hook, or to materialise a boxed view). Alloc and free are
    coordinator-only. *)

val inject : ?mark:int -> t -> leaf:Hier.leaf -> size_bits:float -> Net.Packet_pool.handle
(** Same contract as {!Hier.inject}: returns the packet's pool handle; if
    the queue was full the drop callback has already fired and the handle
    is already recycled (stale).
    @raise Invalid_argument if the leaf is closed or closing. *)

val inject_many : ?mark:int -> t -> leaf:Hier.leaf -> size_bits:float -> count:int -> unit
(** [count] same-size packets arrive back to back at the current simulation
    time. After the first packet the subtree already has a logical head, so
    each further packet is one FIFO push plus one (observer-only) arrive —
    the batched form of the common backlog-building loop.
    @raise Invalid_argument if the leaf is closed or closing, or [count] is
    negative — also when [count = 0]. *)

val close_leaf : t -> leaf:Hier.leaf -> policy:Sched.Sched_intf.close_policy -> unit
(** Same contract as {!Hier.close_leaf}: idle leaves close immediately,
    [`Drain] keeps the schedule place until the queue empties, [`Drop]
    hands queued packets to the drop callback and retracts the committed
    head from every ancestor (the wire packet, if it is this leaf's,
    always finishes and completes the close at departure). *)

val reopen_leaf : ?rate:float -> t -> leaf:Hier.leaf -> unit
(** Same contract as {!Hier.reopen_leaf}: re-opens a closed leaf in place
    with fresh WF²Q+ stamps, optionally at a new [rate]. *)

val leaf_state : t -> leaf:Hier.leaf -> [ `Open | `Closing | `Closed ]

val queue_bits : t -> leaf:Hier.leaf -> float
val departed_bits : t -> node:string -> float
val ref_time : t -> node:string -> float

val node_virtual_time : t -> node:string -> float
(** @raise Invalid_argument if the named node is a leaf. *)

val link_busy : t -> bool
val drops : t -> int

(** {2 Observability}

    Mirrors {!Hier}: packet-level hooks at the link, a per-node
    {!Sched.Sched_intf.observer} slot at each interior node. With no
    observer installed the per-operation cost is one array load and a
    branch. *)

val add_depart_hook : t -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
(** Materialises a boxed packet per departure; prefer the [_handle_]
    variant on hot paths. *)

val add_drop_hook : t -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
val add_transmit_start_hook : t -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit

val add_depart_handle_hook :
  t -> (Net.Packet_pool.handle -> leaf:string -> float -> unit) -> unit
(** Allocation-free {!add_depart_hook}: the callback receives the pool
    handle, valid for the duration of the call only. *)

val add_drop_handle_hook :
  t -> (Net.Packet_pool.handle -> leaf:string -> float -> unit) -> unit

val add_transmit_start_handle_hook :
  t -> (Net.Packet_pool.handle -> leaf:string -> float -> unit) -> unit

val root_name : t -> string
val node_name : t -> int -> string
val node_count : t -> int

val leaf_path : t -> leaf:Hier.leaf -> int array
(** The precomputed leaf→root path (leaf first, root last).
    @raise Invalid_argument if [leaf] is interior. *)

val iter_interior :
  t -> (id:int -> name:string -> level:int -> children:int array -> unit) -> unit
(** Visit every interior node in id (preorder) order. [children.(s)] is the
    node id behind session slot [s]. Unlike {!Hier.iter_interior} there is
    no [policy] argument — install observers via {!set_node_observer_id}. *)

val set_node_observer : t -> node:string -> Sched.Sched_intf.observer option -> unit
(** @raise Not_found if no such node.
    @raise Invalid_argument if the node is a leaf, or when installing an
    observer at [epoch > 1] (backlog and requeue events would fire on
    worker domains). Clearing is always allowed. *)

val set_node_observer_id : t -> node:int -> Sched.Sched_intf.observer option -> unit
(** Same, by node id (as handed to {!iter_interior}). *)
