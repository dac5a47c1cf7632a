(** Compact TCP Reno sender/receiver pair for the link-sharing experiments
    (paper §5.2's "TCP sources").

    The substitution (documented in DESIGN.md): the paper needs long-lived
    rate-adaptive sources that grab available bandwidth and back off on
    loss; this model implements the Reno mechanisms that produce exactly
    that macroscopic behaviour — slow start, congestion avoidance, 3-dupack
    fast retransmit, and RTO with exponential backoff — over a simplified
    path: segments are handed to [send] (normally a bounded leaf queue of an
    {!Hpfq.Hier}); the caller reports each segment's link departure via
    {!on_segment_delivered}; the in-order receiver and the returning ACK
    (after [ack_delay]) live inside this module. A segment rejected by
    [send] (queue overflow) is a loss the sender discovers by dupacks or
    timeout, like a real drop-tail drop.

    Sequence numbers are segment indices starting at 1 and ride in the
    packet [mark] field. *)

type t

val create :
  sim:Engine.Simulator.t ->
  send:(mark:int -> size_bits:float -> [ `Queued | `Dropped ]) ->
  ?segment_bits:float ->
  ?initial_ssthresh:float ->
  ?ack_delay:float ->
  ?min_rto:float ->
  ?max_rto:float ->
  ?start:float ->
  unit ->
  t
(** Defaults: 8 KB segments (65536 bits, the paper's packet size),
    [initial_ssthresh = 64] segments, [ack_delay = 5 ms] (receiver→sender
    latency), [min_rto = 200 ms], [max_rto = 1 s]. The retransmission timer
    follows RFC 6298 (Jacobson estimator, Karn's rule, exponential backoff)
    with early retransmit (RFC 5827) for small flights. The connection
    opens at [start] (default 0) and transmits forever (long-lived flow). *)

val on_segment_delivered : t -> mark:int -> unit
(** Tell the connection one of its segments left the bottleneck link. *)

val cwnd : t -> float
(** Congestion window, segments. *)

val ssthresh : t -> float

val delivered_segments : t -> int
(** Segments accepted in order by the receiver. *)

val retransmits : t -> int
val timeouts : t -> int
val segment_bits : t -> float
