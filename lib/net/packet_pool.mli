(** Packet arena of interleaved cells with generation-tagged int handles.

    The zero-allocation packet plane: each packet is one int cell (flow,
    seq, mark, generation, queue link) and one float cell (size, arrival)
    in two flat arrays, named by an immediate-int handle (slot in the low
    31 bits, allocation generation above — the [Sched.Session_handle]
    encoding). Engines move handles; a boxed {!Packet.t} is materialised
    only at API boundaries via {!to_packet}, with [uid] = the handle
    itself.

    The link word also chains the packet through its queue: {!Queues}
    keeps only each queue's head and tail, so a packet is in at most one
    queue at a time.

    A pool is single-domain: every operation stays on one Domain. *)

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
    @raise Invalid_argument on a stale handle, a double free, or a handle
    still in a queue. *)

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

(** {2 Queue links}

    The chain {!Queues} threads through the link words. These trust their
    handle: {!Queues} validates it (with {!size_bits}) first. *)

val queued : t -> handle -> bool
(** Is the packet in a queue? *)

val link_tail : t -> last:handle -> handle -> unit
(** Make the unqueued packet the new tail of a queue whose tail was
    [last] ({!none}: the queue was empty). *)

val unlink_head : t -> handle -> handle
(** Take a queue's head out of its chain: returns its successor
    ({!none} if it was the tail) and marks it unqueued. *)

val size_bits_unchecked : t -> handle -> float
(** {!size_bits} of a handle known to be live (a queued one). *)
