(** 4-ary indexed min-heap over integer keys — the session heap every
    scheduler runs (the WF²Q+ eligible/waiting sets of nodes wider than
    the kernel's scan cutoff, the fixed-point engine's eligible and
    waiting sets, keyed by each int tick count's bit pattern
    ([Sched.Fixed.prio]), the ready and waiting heaps of the tag-sorted
    disciplines in [Sched.Tagged], and the GPS clock).

    Same contract and ordering (priority, then key, deterministic) as
    {!Indexed_heap}; the two agree pop-for-pop on any operation trace, and
    the test suite cross-checks them on randomized traces. Differences are
    purely mechanical: half the tree depth, priorities and keys in separate
    arrays (a node's four child priorities are 32 contiguous bytes),
    iterative single-write hole sifts instead of pairwise swaps, and
    {!replace_min}.

    Priorities must not be NaN (NaN is the internal empty-slot sentinel). *)

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

val replace_min : t -> key:int -> prio:float -> unit
(** [replace_min h ~key ~prio] is [drop_min h; add h ~key ~prio] in one
    sift-down: the minimum's key leaves and [(key, prio)] enters. [key]
    may be the minimum's own key.
    @raise Invalid_argument if the heap is empty, or [key] is negative or
    present other than as the minimum. *)

val remove : t -> int -> unit
(** Remove [key] if present; no-op otherwise. *)

val min_key : t -> int option
(** Key with smallest priority (ties: smallest key). *)

val min_prio : t -> float option
val min_binding : t -> (int * float) option
val pop_min : t -> (int * float) option

val min_key_unsafe : t -> int
(** Allocation-free [min_key]: the minimum key, or [-1] when empty. *)

val min_prio_unsafe : t -> float
(** Allocation-free [min_prio]: the minimum priority, or NaN when empty. *)

val drop_min : t -> unit
(** Remove the minimum binding; no-op when empty. *)

val prio_of : t -> int -> float option
val iter : (int -> float -> unit) -> t -> unit
val clear : t -> unit

val check_invariant : t -> bool
(** Heap order + position-table + beyond-size-sentinel consistency. *)

val cold : int
(** Sift-down picks the least child of a full fan that starts below this
    slot by a branch-free tournament, and of any other fan by a loop.
    A constant of the structure (4,096); tests size their heaps past
    it. *)
