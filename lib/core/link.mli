(** The output link that {!Server}, {!Hier} and {!Hier_flat} drive: one
    packet on the wire at a time, its transmission-complete event, and the
    burst drain.

    An engine calls {!start} when its selection commits a packet; when the
    packet's last bit leaves, the link clears {!busy} and hands the handle
    to the engine's completion function (RESET-PATH in the paper's §4),
    which may {!start} the next packet.

    {b Burst drain.} One simulator event may run up to {!burst_max}
    consecutive completions. The next completion runs inline only when it
    would have been the very next event anyway: within the burst cap, not
    past the horizon of the enclosing [run ~until] ([<=]: an event exactly
    at the horizon fires), and strictly before the earliest pending event
    (at equal times the pending event carries the smaller schedule seq and
    wins the FIFO tie-break, so it must fire first). Departure times,
    stamps and callback order are therefore bit-identical at every
    [burst_max]; this is the only place the rule is written. *)

type t

val create :
  sim:Engine.Simulator.t -> pool:Net.Packet_pool.t -> rate:float -> burst_max:int -> t
(** An idle link of [rate] bits/second whose packets live in [pool].
    @raise Invalid_argument if [burst_max < 1]. *)

val set_complete : t -> (Net.Packet_pool.handle -> unit) -> unit
(** Install the engine's completion function, called once per departed
    packet with {!busy} already cleared. Set once, right after {!create}. *)

val set_on_start : t -> (Net.Packet_pool.handle -> unit) -> unit
(** Install the engine's transmission-start notification, called by
    {!start} once {!busy} is set and before the completion is scheduled.
    Engines install it with their first transmission-start hook. *)

val start : t -> Net.Packet_pool.handle -> unit
(** Put the packet on the wire now; it completes after its size (read
    from the pool) over the link rate. The link must not be {!busy}. *)

val busy : t -> bool

val in_flight : t -> Net.Packet_pool.handle
(** The packet on the wire, or {!Net.Packet_pool.none} when idle. *)

val burst_max : t -> int

val set_burst_max : t -> int -> unit
(** Takes effect from the next drain activation.
    @raise Invalid_argument if the argument is [< 1]. *)
