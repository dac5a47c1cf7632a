(** Struct-of-arrays packet arena with generation-tagged int handles.

    The zero-allocation packet plane: packets live as parallel flat-array
    cells, named by immediate-int handles (slot in the low 31 bits,
    allocation generation above — the [Sched.Session_handle] encoding).
    Engines move handles; a boxed {!Packet.t} is materialised only at API
    boundaries via {!to_packet}, with [uid] = the handle itself.

    A pool is single-domain: alloc/free must stay on one Domain (sharded
    engines confine them to the coordinator and hand workers read-only
    access to live handles across a fork/join barrier). *)

type t

type handle = int
(** Immediate int. Never negative; {!none} is the sentinel. *)

val none : handle
(** [-1]: never returned by {!alloc}. *)

val create : ?initial_capacity:int -> unit -> t
(** Arena that grows by doubling when full (default initial capacity 64). *)

val alloc :
  ?mark:int -> t -> flow:int -> seq:int -> size_bits:float -> arrival:float -> handle
(** O(1) via the freelist; grows the arena when no slot is free.
    @raise Invalid_argument unless [size_bits] is positive and finite
    (NaN and infinity are rejected). *)

val free : t -> handle -> unit
(** Recycle the slot and bump its generation, invalidating [handle].
    @raise Invalid_argument on a stale handle or double free. *)

val flow : t -> handle -> int
val seq : t -> handle -> int
val mark : t -> handle -> int
val size_bits : t -> handle -> float
val arrival : t -> handle -> float
(** Field reads; each validates the generation tag.
    @raise Invalid_argument on a stale handle. *)

val live : t -> handle -> bool
(** Is [handle]'s slot still the allocation that produced it? *)

val to_packet : t -> handle -> Packet.t
(** Boundary materialisation (allocates the box); [uid] = [handle],
    unique within the pool across a run (generations make recycled slots
    yield fresh handles). *)

val slot_of : handle -> int
val generation_of : handle -> int

val live_count : t -> int
val capacity : t -> int
