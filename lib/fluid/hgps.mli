(** Exact fluid Hierarchical GPS server (paper §2.2).

    The hypothetical reference system: traffic is infinitely divisible and
    at every instant the link's capacity flows down the class tree, each
    backlogged node splitting its allocation among its backlogged children
    in proportion to their rates (eq. 8). Packet algorithms are judged by
    how closely they track this system; Fig. 9(b)'s "ideal" curves are its
    output.

    The implementation advances time in closed form between {e epochs} —
    instants where the backlogged set changes (an arrival, a leaf draining
    empty, or an on/off toggle). Between epochs every allocation is
    constant, so service integrates linearly and each packet's fluid finish
    time is computed exactly (no time-stepping error).

    Leaves operate in one of two modes:
    - {e packet mode}: backlog is fed by [arrive] and drains to zero;
      [on_packet_finish] fires as cumulative service crosses each packet
      boundary — this is how GPS/H-GPS finish orders (Fig. 2) are obtained;
    - {e persistent mode}: the leaf is always backlogged (models greedy
      sources such as long-lived TCPs for ideal link-sharing curves). *)

type t

val create :
  spec:Hpfq.Class_tree.t ->
  ?on_packet_finish:(Net.Packet.t -> float -> unit) ->
  unit ->
  t
(** @raise Invalid_argument if [spec] fails validation. *)

val now : t -> float
val advance : t -> to_:float -> unit
(** Integrate the fluid system up to the given time (monotone). *)

val leaf_id : t -> string -> int
val arrive : t -> at:float -> leaf:int -> size_bits:float -> Net.Packet.t
(** Advance to [at], then add a packet's worth of fluid to the leaf. *)

val set_persistent : t -> at:float -> leaf:int -> bool -> unit
(** Toggle persistent (always-backlogged) mode. Entering persistent mode
    suspends packet-boundary tracking; leaving it clears the leaf. *)

val served_bits : t -> node:string -> float
(** Cumulative fluid service W_n(0, now) of any named node. *)

val backlog_bits : t -> leaf:int -> float
val current_rate : t -> node:string -> float
(** Instantaneous allocation of the named node at [now] (0 if idle). *)

val busy : t -> bool
