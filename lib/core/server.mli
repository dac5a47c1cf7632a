(** Standalone one-level packet server: couples a scheduling policy to real
    per-session FIFO queues and a transmitting link inside a discrete-event
    simulation.

    This is the packaging of a {!Sched.Sched_intf.t} building block as a
    complete router output port: packets are injected per session, queued,
    selected by the policy, serialised onto the link at the server rate, and
    handed to the departure callback. Used directly by the one-level
    experiments (Fig. 2, WFI measurements) and as the reference semantics
    the hierarchical server must reduce to on a one-level tree.

    Sessions live in flat arrays indexed by session slot, and each
    session's queue is one queue of a {!Net.Queues} set over the server's
    {!Net.Packet_pool}. The engine moves immediate int handles and
    allocates no boxes on the hot path. Boxed {!Net.Packet.t} views are
    materialised only inside the boxed hook wrappers; the [_handle_] hook
    variants observe raw handles (valid during the callback — a
    departed/dropped packet's handle is recycled as soon as its callbacks
    return). *)

type t

val create :
  sim:Engine.Simulator.t ->
  rate:float ->
  policy:Sched.Sched_intf.t ->
  ?on_depart:(Net.Packet.t -> float -> unit) ->
  ?on_drop:(Net.Packet.t -> float -> unit) ->
  ?burst_max:int ->
  unit ->
  t
(** [rate] is the link rate in bits/second. [on_depart pkt time] fires when
    the last bit of [pkt] leaves the link.

    [burst_max] (default 1) bounds how many consecutive departures one
    simulator event may execute while the link stays backlogged: at 1 every
    packet costs one event (the classic per-packet loop); larger values
    amortize event-set traffic over bursts. The server's {!Link} owns the
    burst rule: departure times, stamps and callback order are
    bit-identical at every setting.
    @raise Invalid_argument if [burst_max < 1]. *)

val set_burst_max : t -> int -> unit
(** Change the burst cap; takes effect from the next drain activation.
    @raise Invalid_argument if the argument is [< 1]. *)

val burst_max : t -> int

val open_session :
  t -> rate:float -> ?queue_capacity_bits:float -> unit -> Sched.Session_handle.t
(** Open a session with guaranteed rate [r_i], any time — the server may
    already be transmitting. Returns a generation-tagged handle (see
    {!Sched.Session_pool}); resolving it after close raises
    [Stale_handle]. *)

val close_session :
  t -> policy:Sched.Sched_intf.close_policy -> Sched.Session_handle.t -> unit
(** Close a session deterministically in every state: idle sessions free
    immediately; a backlogged session either keeps its schedule place
    until empty ([`Drain]) or hands its queued packets to the drop
    callback now ([`Drop]) — except the packet already committed to the
    link, which always finishes transmitting (the close completes at its
    departure).
    @raise Sched.Session_pool.Stale_handle on a stale handle.
    @raise Invalid_argument if the session is already closing. *)

val pool : t -> Net.Packet_pool.t
(** The server's packet arena (to read fields of a handle inside a
    [_handle_] hook, or to materialise a boxed view). *)

val inject : t -> session:int -> size_bits:float -> Net.Packet_pool.handle
(** A packet of [size_bits] arrives on [session] at the current simulation
    time. Returns its pool handle. If the queue was full the drop callback
    has already fired and the handle is already recycled (stale).
    @raise Invalid_argument ["Server.inject: unknown session n"] if slot
    [n] was never opened, or if the session is closed or closing. *)

val inject_handle :
  t -> handle:Sched.Session_handle.t -> size_bits:float -> Net.Packet_pool.handle
(** Handle-taking {!inject}.
    @raise Sched.Session_pool.Stale_handle on a stale handle. *)

val inject_batch : t -> session:int -> size_bits:float -> count:int -> unit
(** [count] packets of [size_bits] arrive back-to-back on [session] at the
    current simulation time, stamped with one clock read and kicking the
    transmission chain once. Per-packet drop callbacks still fire for
    packets the queue rejects.
    @raise Invalid_argument if the session was never opened (named as for
    {!inject}), is closed, or [count] is negative. *)

val queue_bits : t -> session:int -> float
(** Current backlog Q_i(t) of the session, excluding any packet already
    committed to the link.
    @raise Invalid_argument if the session was never opened. *)

val queued_packets : t -> int
(** Packets waiting in all session queues; the one on the link is not
    among them. O(sessions). *)

val busy : t -> bool
val policy : t -> Sched.Sched_intf.t

val session_count : t -> int
(** Slots ever created (including closed ones awaiting reuse). *)

val live_sessions : t -> int
(** Currently open (live or draining) sessions. *)

val add_depart_hook : t -> (Net.Packet.t -> float -> unit) -> unit
(** Append a departure callback, composed after any existing ones (including
    the [on_depart] given at creation). Used by the tracing layer.
    Materialises a boxed packet per departure. *)

val add_drop_hook : t -> (Net.Packet.t -> float -> unit) -> unit
(** Append a drop callback; same composition rule as {!add_depart_hook}. *)

val add_transmit_start_hook : t -> (Net.Packet.t -> float -> unit) -> unit
(** Append a callback fired when a packet's first bit goes onto the link
    (i.e. right after the policy selected it and the server committed). *)

val add_depart_handle_hook : t -> (Net.Packet_pool.handle -> float -> unit) -> unit
(** Allocation-free {!add_depart_hook}: the callback receives the pool
    handle, valid for the duration of the call only. *)

val add_drop_handle_hook : t -> (Net.Packet_pool.handle -> float -> unit) -> unit
val add_transmit_start_handle_hook :
  t -> (Net.Packet_pool.handle -> float -> unit) -> unit

val departed_bits : t -> session:int -> float
(** Cumulative W_i(0, now): bits of the session fully transmitted.
    @raise Invalid_argument if the session was never opened. *)
