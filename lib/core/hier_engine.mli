(** Engine selection facade over the two H-PFQ implementations.

    [`Generic] is {!Hier} — any {!Sched.Sched_intf.factory} at every node,
    the audited reference. [`Flat] is {!Hier_flat} — the monomorphic WF²Q+
    fast path. [`Auto] (the default) picks flat when the requested factory
    is WF²Q+ and generic otherwise, so WF²Q+-only trees (the paper's
    headline system) get the fast engine without callers caring.
    A [`Subtree] choice builds the same [Flat] engine with its epoch layer
    configured (root-child subtrees staged per shard, the root synced in
    epochs).

    Both engines are driven through the shared subset of their surfaces
    below; use {!generic}/{!flat} to reach engine-specific APIs (e.g.
    per-node observers through {!Obs}' attach functions). *)

type subtree = {
  shards : int option;  (** default: one per root child *)
  epoch : int;
}
(** Settings of the [`Subtree] engine: {!Hier_flat.create}'s epoch layer
    ([shards], [epoch]; see there for their meaning). *)

type t =
  | Generic of Hier.t
  | Flat of Hier_flat.t  (** also what a [`Subtree] choice builds *)

type choice = [ `Generic | `Flat | `Auto | `Subtree of subtree ]

val choice_of_string : string -> (choice, string) result
(** Parses ["generic" | "flat" | "auto" | "subtree"] (the [--hier-engine]
    CLI values); ["subtree"] carries [shards = None] and [epoch = 1]. *)

val choice_to_string : choice -> string

val create :
  sim:Engine.Simulator.t ->
  spec:Class_tree.t ->
  factory:Sched.Sched_intf.factory ->
  ?engine:choice ->
  ?root_clock:[ `Real_time | `Reference_time ] ->
  ?on_depart:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?on_drop:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?burst_max:int ->
  unit ->
  t
(** Uniform [factory] at every interior node (mixed-discipline trees must
    use {!Hier.create} directly — they are generic-only). [burst_max]
    (default 1) is the burst-drain cap, forwarded to the chosen engine;
    departure times, stamps and callback order are bit-identical at every
    setting (see {!Server.create}). [`Subtree] settings go to
    {!Hier_flat.create}.
    @raise Invalid_argument if [`Flat] or [`Subtree] is forced with a
    non-WF²Q+ factory, [spec] is invalid, [burst_max < 1], or a
    [`Subtree] setting is out of range. *)

val set_burst_max : t -> int -> unit
(** Change the burst cap; takes effect from the next drain activation.
    @raise Invalid_argument if the argument is [< 1]. *)

val burst_max : t -> int

val kind : t -> [ `Generic | `Flat ]

val generic : t -> Hier.t option

val flat : t -> Hier_flat.t option
(** The {!Hier_flat} engine behind [`Flat] and [`Subtree] (read its
    epoch-layer settings with {!Hier_flat.shards} and friends). *)

(** {2 Shared surface} — each delegates to the engine's function of the
    same name; see {!Hier} for contracts. *)

val leaf_id : t -> string -> Hier.leaf
val leaf_name : t -> Hier.leaf -> string
val leaf_ids : t -> (string * Hier.leaf) list
val pool : t -> Net.Packet_pool.t
(** The engine's packet arena (to read fields of a handle inside a
    [_handle_] hook). *)

val inject : ?mark:int -> t -> leaf:Hier.leaf -> size_bits:float -> Net.Packet_pool.handle
(** Returns the packet's pool handle; stale already if the queue dropped
    it (the drop callback has fired). *)

val inject_many : ?mark:int -> t -> leaf:Hier.leaf -> size_bits:float -> count:int -> unit
(** Batched arrivals stamped with one clock read — the [enqueue_batch]
    API; bit-identical to [count] separate {!inject} calls. *)

val close_leaf : t -> leaf:Hier.leaf -> policy:Sched.Sched_intf.close_policy -> unit
(** Close a leaf class on either engine; see {!Hier.close_leaf}. *)

val reopen_leaf : ?rate:float -> t -> leaf:Hier.leaf -> unit
(** Re-open a closed leaf; see {!Hier.reopen_leaf}. *)

val leaf_state : t -> leaf:Hier.leaf -> [ `Open | `Closing | `Closed ]

val queue_bits : t -> leaf:Hier.leaf -> float
val departed_bits : t -> node:string -> float
val ref_time : t -> node:string -> float
val node_virtual_time : t -> node:string -> float
val link_busy : t -> bool
val drops : t -> int
val add_depart_hook : t -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
val add_drop_hook : t -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
val add_transmit_start_hook : t -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit

val add_depart_handle_hook :
  t -> (Net.Packet_pool.handle -> leaf:string -> float -> unit) -> unit
(** Allocation-free hook variants: the callback sees the pool handle, valid
    for the duration of the call only. *)

val add_drop_handle_hook :
  t -> (Net.Packet_pool.handle -> leaf:string -> float -> unit) -> unit

val add_transmit_start_handle_hook :
  t -> (Net.Packet_pool.handle -> leaf:string -> float -> unit) -> unit

val root_name : t -> string
val node_name : t -> int -> string
val node_count : t -> int
val leaf_path : t -> leaf:Hier.leaf -> int array
