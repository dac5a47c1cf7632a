(** Per-session FIFO queue of pooled packet handles, with bit accounting
    and a drop-tail limit.

    This is the physical queue at a leaf node (the paper's Q̂_i). It tracks
    [bits] = Q_i(t), the backlog in bits including the head packet, which is
    the quantity appearing in the T-WFI definition (paper eq. 10).

    A view of a one-queue {!Queues} set over a {!Packet_pool}: the same
    code, so the same flat layout (the chain runs through the packets' link
    words) and the same contracts. Nothing is allocated on the push/pop
    path. The queue never frees handles — ownership stays with the engine
    that allocated them. *)

type t

val create : ?capacity_bits:float -> pool:Packet_pool.t -> unit -> t
(** Unbounded unless [capacity_bits] is given (drop-tail beyond it). Sizes
    for the accounting are read from [pool]. *)

val pool : t -> Packet_pool.t
(** The arena this queue's handles live in. *)

val push : t -> Packet_pool.handle -> bool
(** Append. Returns [false] (without enqueueing) if the packet's bits would
    exceed the capacity; the drop counter is incremented and the caller
    keeps ownership of the handle.
    @raise Invalid_argument on a stale handle or one already in a queue
    (this one or another); no queue changes. *)

val peek_exn : t -> Packet_pool.handle
(** @raise Queue.Empty when the queue is empty. *)

val pop_exn : t -> Packet_pool.handle
(** Remove and return the head. @raise Queue.Empty when empty. *)

val drop_head : t -> unit
(** [pop_exn] with the result discarded (the handle is NOT freed).
    @raise Queue.Empty when the queue is empty. *)

val length : t -> int

val bits : t -> float
(** Current backlog in bits (snaps to 0.0 exactly when the queue empties,
    so float error cannot accumulate across busy periods). *)

val is_empty : t -> bool
val drops : t -> int

val clear : t -> unit
(** Empty the queue without freeing handles (they become unqueued); the
    caller is responsible for recycling them (or leaking them
    deliberately, e.g. at teardown). *)
