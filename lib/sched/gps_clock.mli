(** Exact GPS virtual-time tracker (paper eqs. 4–5).

    Simulates the fluid Generalized Processor Sharing system that shadows a
    packet server, fed with the same packet arrivals, and answers
    [V_GPS(now)] queries. This is the expensive-but-exact virtual time that
    WFQ and WF²Q are defined against; its worst-case per-operation cost is
    O(N) (the paper's motivation for replacing it with eq. 27 in WF²Q+).

    The fluid state advances lazily: every query first replays fluid
    departures up to [now]. Within one server busy period
    [dV/dt = r / Σ_{i ∈ B(t)} r_i], i.e. eq. 5 with shares expressed as
    absolute rates. When the fluid system drains completely the busy period
    ends: [V] resets to 0 and the epoch counter increments, so stamps from
    different busy periods are never compared (Parekh–Gallager define V per
    busy period). *)

type t

val create : rate:float -> t
(** [rate] is the server rate in bits/second (of server time). *)

val add_session : t -> rate:float -> int
(** Register a session with guaranteed rate [r_i]; returns its index. *)

val on_arrival :
  t -> now:float -> session:int -> size_bits:float -> Stamp_queue.t -> unit
(** Feed a packet into the fluid system and push its virtual
    [(start, finish)] stamps per eqs. 6–7 onto the given queue (no tuple is
    returned, so the per-packet path allocates nothing). Arrival times per
    session must be non-decreasing, and [now] non-decreasing overall. *)

val virtual_time : t -> now:float -> float
(** [V_GPS(now)]. *)

val epoch : t -> now:float -> int
(** Busy-period counter at [now]; 0 before the first arrival. Stamps are
    comparable only within one epoch. *)

val gps_backlogged : t -> now:float -> session:int -> bool
(** Does the session still have fluid backlog at [now]? *)

val busy : t -> now:float -> bool
