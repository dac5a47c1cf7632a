(** Link-sharing class hierarchies (the trees of paper Figs. 1, 3, 8).

    A spec is a value describing the tree: interior nodes carry a name and a
    guaranteed rate; leaves additionally may bound their physical queue.
    Rates are absolute (bits/second); the paper's shares [φ_n] are recovered
    as [rate(n)/rate(parent n)]. The paper assumes
    [Σ_{m ∈ child(n)} φ_m = φ_n]; {!validate} enforces the corresponding
    rate identity (children sum to at most the parent, within tolerance). *)

type t =
  | Leaf of { name : string; rate : float; queue_capacity_bits : float option }
  | Node of { name : string; rate : float; children : t list }

val leaf : ?queue_capacity_bits:float -> string -> rate:float -> t
val node : string -> rate:float -> t list -> t

val node_share : string -> share:float -> parent_rate:float -> (float -> t list) -> t
(** Convenience for writing trees the way the paper labels them (share of
    parent): [node_share name ~share ~parent_rate children] creates a node
    of rate [share *. parent_rate] and passes that rate to [children]. *)

val name : t -> string
val rate : t -> float
val children : t -> t list
val is_leaf : t -> bool

val with_queue_caps : float -> t -> t
(** [with_queue_caps bits t] bounds every leaf's physical queue to [bits]
    (overwriting any existing cap). Used where a tree is replicated many
    times — e.g. once per output link of a sharded device — and unbounded
    queues under overload would be a memory bug rather than a modeling
    choice.
    @raise Invalid_argument if [bits <= 0]. *)

val validate : t -> (unit, string list) result
(** Checks: finite positive rates and queue capacities; unique names;
    interior nodes have ≥1 child; child rates sum to ≤ parent rate
    (tolerance 1e-6 relative). *)

val leaves : t -> (string * float) list
(** Leaf names with rates, left-to-right. *)

val depth : t -> int
(** 1 for a bare leaf; a one-level server (root + leaves) has depth 2. *)

val count_nodes : t -> int

val find_path : t -> string -> t list option
(** Path from the root to the named node, inclusive; [None] if absent. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering with rates and shares. *)
