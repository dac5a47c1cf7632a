(** A set of FIFO queues of pooled packet handles, with bit accounting and
    drop-tail limits, all laid out flat.

    Each queue is the physical queue at a leaf (the paper's Q̂_i). It
    tracks [bits] = Q_i(t), the backlog in bits including the head packet,
    which is the quantity appearing in the T-WFI definition (paper eq. 10).

    Queue [q]'s state is one int cell (head, tail, length, drops) and one
    float cell (bits, capacity) in two arrays shared by the whole set; the
    element chain runs through the packets' own link words in the
    {!Packet_pool} (see there). Push and pop touch the queue's two cells
    and the packet cells at the ends, and allocate nothing. A handle is in
    at most one queue at a time. The set never frees handles — ownership
    stays with the engine that allocated them. *)

type t

val create : ?queues:int -> pool:Packet_pool.t -> unit -> t
(** A set over [pool], whose handles every queue holds, starting with
    [queues] (default 0) empty unbounded queues, ids [0 .. queues - 1]. *)

val pool : t -> Packet_pool.t

val add : ?capacity_bits:float -> t -> int
(** Append an empty queue and return its id ([count] before the call).
    Unbounded unless [capacity_bits] is given (drop-tail beyond it).
    @raise Invalid_argument unless [capacity_bits] is positive. *)

val reset : ?capacity_bits:float -> t -> int -> unit
(** Reinitialise the empty queue [q] as {!add} would make it (drop count
    0, new capacity).
    @raise Invalid_argument if the queue is not empty or [capacity_bits]
    is not positive. *)

val count : t -> int
(** Queues in the set. *)

val push : t -> int -> Packet_pool.handle -> bool
(** Append. Returns [false] (without enqueueing) if the packet's bits would
    exceed the capacity; the drop counter is incremented and the caller
    keeps ownership of the handle.
    @raise Invalid_argument on a stale handle or one already in a queue
    (this one or another); no queue changes. *)

val peek_exn : t -> int -> Packet_pool.handle
(** @raise Queue.Empty when the queue is empty. *)

val pop_exn : t -> int -> Packet_pool.handle
(** Remove and return the head. @raise Queue.Empty when empty. *)

val drop_head : t -> int -> unit
(** [pop_exn] with the result discarded (the handle is NOT freed).
    @raise Queue.Empty when the queue is empty. *)

val length : t -> int -> int

val bits : t -> int -> float
(** Current backlog in bits (snaps to 0.0 exactly when the queue empties,
    so float error cannot accumulate across busy periods). *)

val is_empty : t -> int -> bool
val drops : t -> int -> int

val clear : t -> int -> unit
(** Empty the queue without freeing its handles (they become unqueued);
    the caller is responsible for recycling them. O(length). *)

val total_length : t -> int
(** Packets in all queues of the set. O(count). *)
