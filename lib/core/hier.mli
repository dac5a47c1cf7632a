(** H-PFQ: a hierarchical packet server assembled from one-level PFQ
    building blocks (paper §4, pseudocode ARRIVE / RESTART-NODE /
    RESET-PATH).

    Every interior node of a {!Class_tree.t} runs its own one-level policy
    over its children; leaves own physical FIFO queues. Logical queues hold
    only a reference to the packet at the head of each subtree; the packet
    itself stays in its leaf queue until the link transmits it. Each node is
    driven in its own {e reference time} [T_n(t) = W_n(0,t)/r_n] (§4.1),
    post-dated per service exactly as lines 12–13 of RESTART-NODE post-date
    the node clocks.

    Instantiating every node with {!Wf2q_plus} gives H-WF²Q+; with
    {!Sched.Tagged.wfq} gives the H-WFQ the paper compares against; any
    mix is allowed (e.g. a different discipline per level).

    The [root_clock] option selects what "now" means for the root node's
    policy: [`Real_time] (default) passes simulation time, matching the
    standalone WF²Q+ definition of §3.4 where V advances with real time τ;
    [`Reference_time] passes the stored post-dated T_R, matching the
    pseudocode to the letter. The two coincide whenever the server is busy
    (paper eq. 32) and differ only across idle gaps; a bench quantifies the
    difference.

    Packets live in a per-hierarchy {!Net.Packet_pool}; logical queues and
    the wire hold immediate int handles, and a boxed {!Net.Packet.t} is
    materialised only inside the boxed hook wrappers. Handle hooks see the
    raw handle, valid for the duration of the callback. *)

type t

type leaf = Hier_tree.leaf
(** A validated leaf identity, shared by both engines (see
    {!Hier_tree.leaf}); the node id is [(l :> int)]. *)

val create :
  sim:Engine.Simulator.t ->
  spec:Class_tree.t ->
  make_policy:(level:int -> name:string -> rate:float -> Sched.Sched_intf.t) ->
  ?root_clock:[ `Real_time | `Reference_time ] ->
  ?on_depart:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?on_drop:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?burst_max:int ->
  unit ->
  t
(** The root of [spec] is the physical link; its rate is the link rate.
    [make_policy] is called once per interior node ([level] 0 = root).

    [burst_max] (default 1) bounds how many consecutive departures one
    simulator event may execute while the link stays backlogged; departure
    times, stamps and callback order are bit-identical at every setting
    (the burst rule of {!Link}, which drives the root's link).
    @raise Invalid_argument if {!Hier_tree.create} rejects [spec] (it
    fails {!Class_tree.validate}, or its root is a leaf) or
    [burst_max < 1]. *)

val set_burst_max : t -> int -> unit
(** Change the burst cap; takes effect from the next drain activation.
    @raise Invalid_argument if the argument is [< 1]. *)

val burst_max : t -> int

val uniform : Sched.Sched_intf.factory -> level:int -> name:string -> rate:float -> Sched.Sched_intf.t
(** Use one discipline at every node:
    [create ~make_policy:(uniform Wf2q_plus.factory) ...]. *)

val pool : t -> Net.Packet_pool.t
(** The hierarchy's packet arena (to read fields of a handle inside a
    [_handle_] hook, or to materialise a boxed view). *)

val inject : ?mark:int -> t -> leaf:leaf -> size_bits:float -> Net.Packet_pool.handle
(** A packet arrives at the leaf at the current simulation time. Its [flow]
    field is the leaf id; [mark] is a free-form tag (e.g. a TCP sequence
    number) carried through to the departure callback. Returns the packet's
    pool handle; if the queue was full the drop callback has already fired
    and the handle is already recycled (stale).
    @raise Invalid_argument if the leaf is closed or closing. *)

val inject_many :
  ?mark:int -> t -> leaf:leaf -> size_bits:float -> count:int -> unit
(** [count] packets of [size_bits] arrive back-to-back at the leaf, stamped
    with one clock read. Bit-identical to [count] calls of {!inject} (the
    clock cannot move during injection); only per-packet lookup and stamp
    overhead is amortized.
    @raise Invalid_argument if the leaf is closed or [count] is negative. *)

val close_leaf : t -> leaf:leaf -> policy:Sched.Sched_intf.close_policy -> unit
(** Close a leaf class, deterministically in every state: an idle leaf's
    parent slot frees immediately; a backlogged leaf either keeps its
    schedule place until its queue empties ([`Drain]) or has its queued
    packets handed to the drop callback now ([`Drop]) — with one
    exception: a head packet already committed to the wire always finishes
    transmitting, and the close completes at its departure. A [`Drop]
    close retracts the leaf's committed head from every ancestor's logical
    queue and re-runs the RESTART-NODE cascade, so ancestor schedules stay
    consistent.
    @raise Invalid_argument if not a leaf, or already closed/closing. *)

val reopen_leaf : ?rate:float -> t -> leaf:leaf -> unit
(** Re-open a closed leaf (the class tree's shape is fixed at {!create};
    lifecycle is close + reopen in place). The leaf rejoins its parent as
    a fresh session — new handle generation, stamps reset — optionally
    with a new [rate].
    @raise Invalid_argument if the leaf is open or still draining. *)

val leaf_state : t -> leaf:leaf -> [ `Open | `Closing | `Closed ]
(** [`Closing] covers both a draining leaf and a [`Drop] close waiting on
    the wire packet. *)

val queue_bits : t -> leaf:leaf -> float
val departed_bits : t -> node:string -> float
(** Cumulative W_n(0, now) for any named node (leaf or interior). *)

val ref_time : t -> node:string -> float
(** The node's (post-dated) reference time T_n; root only meaningful under
    [`Reference_time]. *)

val node_virtual_time : t -> node:string -> float
(** Virtual time of the named interior node's policy (introspection). *)

val link_busy : t -> bool
val drops : t -> int

val held_packets : t -> int
(** Packets queued at the leaves. The packet on the wire stays at its
    leaf's head until its departure hooks have run, so it is among them.
    O(nodes). *)

(** {2 The tree}

    Ids, names, paths and the leaf hooks come from the hierarchy's
    {!Hier_tree} index and hook set. Hooks compose with (run after) the
    callbacks given at creation; with none installed the hot path is
    unchanged. *)

include Hier_tree.SURFACE with type engine := t

(** {2 Observability} *)

val set_node_observer_id : t -> node:int -> Sched.Sched_intf.observer option -> unit
(** Install or remove an observer on interior node [node]'s policy.
    @raise Invalid_argument if the node is a leaf. *)
