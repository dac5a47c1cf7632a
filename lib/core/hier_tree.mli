(** The tree index under both H-PFQ engines ({!Hier} and {!Hier_flat}):
    what a {!Class_tree.t} lowers to before any node runs a discipline.

    The paper (§4) builds H-PFQ as one tree procedure over any one-level
    PFQ node, so the tree's shape does not depend on the node discipline.
    Every shape decision is made here, once: the level-order ids, parents,
    levels and rates, each node's children with the session slot each
    child first takes in its parent, the leaf→root paths, the leaf queue
    caps and the names. So are the leaf lookups and the leaf-hook set,
    which every engine exposes through {!Surface}.

    The index holds no dynamic state and none of the tree procedures:
    each engine keeps its own ARRIVE / RESTART-NODE / RESET-PATH /
    CLOSE-LEAF code, so the lockstep tests keep comparing two
    implementations of them. *)

type leaf = private int
(** A validated leaf identity, from [leaf_id]/[leaf_ids] (or, for code
    that persists raw node ids, {!unsafe_leaf_of_int}); the node id is
    [(l :> int)]. Being private, it stops session slots, interior node ids
    or hashes from being passed where a leaf is required. *)

type t = private {
  parent : int array;  (** [-1] at the root *)
  level : int array;  (** [0] at the root *)
  rate : float array;  (** the spec's; an engine that changes one copies it *)
  children_off : int array;
  children_len : int array;  (** [0] exactly at the leaves *)
  child_ids : int array;
      (** node [n]'s child in slot [s] is [child_ids.(children_off.(n) + s)],
          in the spec's order: the slots a fresh policy hands out *)
  slot : int array;  (** a child's slot in its parent at creation; [-1] at the root *)
  path_off : int array;
  path_len : int array;  (** [level + 1] at a leaf, [0] elsewhere *)
  path_nodes : int array;
      (** leaf [l]'s path, leaf first and root last, from [path_off.(l)] *)
  capacity_bits : float option array;  (** a leaf's drop-tail cap *)
  names : string array;
  by_name : (string, int) Hashtbl.t;
  leaves : (string * leaf) list;  (** left to right *)
}
(** Arrays are indexed by node id. Ids are level order: the root is [0],
    then level 1 left to right, then level 2, and so on, so each node's
    children are consecutive ids in slot order and [level] never
    decreases with the id. Every departure walks its leaf's path to the
    root, so the upper levels are the hot part of each per-node array;
    level order packs them at its front (in a depth-6 fan-out-4 tree the
    top five levels are ids [0 .. 340]), where preorder spread them over
    the whole range. Leaves keep their left-to-right order in [leaves]
    but not among the ids: a key that must not depend on the numbering
    uses a leaf's position there. Engines read the arrays directly on
    their hot paths; nothing changes after {!create}. *)

val create : Class_tree.t -> t
(** @raise Invalid_argument if the spec fails {!Class_tree.validate} or
    its root is a leaf, with one message whichever engine asks. *)

val make_queues : t -> pool:Net.Packet_pool.t -> Net.Queues.t
(** One physical queue per node id over [pool], each leaf's bounded by its
    cap; an interior node's stays empty. *)

val node_count : t -> int
val is_leaf : t -> int -> bool

val node_id : t -> string -> int
(** @raise Not_found if no node has that name. *)

val unsafe_leaf_of_int : int -> leaf
(** The int is NOT validated: for code that stores raw node ids, such as
    a packet's [flow] field (its leaf's node id). *)

(** {2 The leaf hooks} *)

type leaf_cb = Net.Packet_pool.handle -> leaf:string -> float -> unit
(** Handed the packet's pool handle (valid for the call only), its leaf's
    name and the time. *)

type hooks = private {
  mutable on_depart : leaf_cb;  (** the last bit left the link *)
  mutable on_drop : leaf_cb;
  mutable on_transmit_start : leaf_cb;  (** fired by the link once one is added *)
  sim : Engine.Simulator.t;
  pool : Net.Packet_pool.t;
  link : Link.t;
  leaf_names : string array;
}
(** An engine's hook set. Added hooks run after those already there; with
    none, the engine pays one call to a no-op. *)

val hooks :
  t ->
  sim:Engine.Simulator.t ->
  pool:Net.Packet_pool.t ->
  link:Link.t ->
  ?on_depart:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?on_drop:(Net.Packet.t -> leaf:string -> float -> unit) ->
  unit ->
  hooks
(** Starting with the engine's creation callbacks, if any, installed as
    boxed hooks. *)

(** {2 The engines' shared surface} *)

module type SURFACE = sig
  type engine

  val index : engine -> t
  val hooks : engine -> hooks

  val leaf_id : engine -> string -> leaf
  (** @raise Not_found if no node has that name.
      @raise Invalid_argument if the name belongs to an interior node. *)

  val leaf_name : engine -> leaf -> string
  val leaf_ids : engine -> (string * leaf) list
  val root_name : engine -> string

  val node_name : engine -> int -> string
  (** Name of any node id (leaves included). *)

  val node_count : engine -> int
  (** Total nodes (interior + leaves); ids are [0 .. node_count - 1]. *)

  val leaf_path : engine -> leaf:leaf -> int array
  (** The leaf→root path of node ids (leaf first, root last), the walk a
      departure credits W_n along.
      @raise Invalid_argument if [leaf] is interior. *)

  val iter_interior :
    engine -> (id:int -> name:string -> level:int -> children:int array -> unit) -> unit
  (** Visit every interior node in preorder (the root, then each child's
      subtree in slot order), not in id order. [children.(s)] is the node
      id in session slot [s] at creation. *)

  val add_depart_hook : engine -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
  (** Append a departure callback (fires when the last bit leaves the
      link). Materialises a boxed packet per departure; prefer the
      [_handle_] variant on hot paths. *)

  val add_drop_hook : engine -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit

  val add_transmit_start_hook : engine -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
  (** Append a callback fired when a packet's first bit goes onto the link. *)

  val add_depart_handle_hook : engine -> leaf_cb -> unit
  (** Allocation-free {!add_depart_hook}: the callback receives the pool
      handle, valid for the duration of the call only. *)

  val add_drop_handle_hook : engine -> leaf_cb -> unit
  val add_transmit_start_handle_hook : engine -> leaf_cb -> unit
end

module Surface (E : sig
  type engine

  val index : engine -> t
  val hooks : engine -> hooks
end) : SURFACE with type engine := E.engine
(** An engine's index, hook set, lookups and hook adders: {!Hier},
    {!Hier_flat} and {!Hier_engine} all include it. *)
