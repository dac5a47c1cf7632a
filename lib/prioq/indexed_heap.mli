(** Binary min-heap over integer keys with O(log n) priority updates.

    Keys are small non-negative integers (session/child indices). Each key
    appears at most once. Priorities are floats with an integer tie-breaker
    (the key itself) so ordering is deterministic. [update] supports both
    decrease-key and increase-key. The schedulers run {!Indexed_heap4};
    this binary heap is the reference the tests check it against. *)

type t

val create : int -> t
(** [create capacity] handles keys [0 .. capacity-1]; grows on demand. *)

val length : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

val add : t -> key:int -> prio:float -> unit
(** @raise Invalid_argument if [key] is already present or negative. *)

val update : t -> key:int -> prio:float -> unit
(** Change the priority of a present key (either direction).
    @raise Invalid_argument if [key] is absent. *)

val add_or_update : t -> key:int -> prio:float -> unit

val remove : t -> int -> unit
(** Remove [key] if present; no-op otherwise. *)

val min_key : t -> int option
(** Key with smallest priority (ties: smallest key). *)

val min_prio : t -> float option
val min_binding : t -> (int * float) option
val pop_min : t -> (int * float) option
val prio_of : t -> int -> float option
val iter : (int -> float -> unit) -> t -> unit
val clear : t -> unit

val check_invariant : t -> bool
(** Heap order + position-table consistency (used by tests). *)
