(** Per-node running counters, updated live as observer callbacks fire.

    One {!node} per scheduler/tree node: arrival and service totals,
    instantaneous and watermark backlog depth (in backlogged {e sessions},
    the unit the one-level policies reason in), busy-period count (idle →
    backlogged transitions of the node as a whole), and virtual-time
    watermarks. Service totals are credited along the departed packet's
    leaf-to-root path, so [served_bits] of a node equals its
    W_n(0,t) — directly comparable to {!Hpfq.Hier.departed_bits}. *)

type node = private {
  name : string;
  mutable arrivals : int;
  mutable arrived_bits : float;
  mutable selects : int;
  mutable served_pkts : int;
  mutable served_bits : float;
  mutable drops : int;
  mutable backlog : int;
  mutable max_backlog : int;
  mutable busy_periods : int;
  mutable vtime_min : float;  (** [infinity] until first observation. *)
  mutable vtime_max : float;  (** [neg_infinity] until first observation. *)
}

type t

val create : names:string array -> t
(** One slot per node, indexed by node id; [names.(id)] labels the rows of
    {!report}. *)

val node : t -> int -> node
val node_count : t -> int
val on_arrive : t -> node:int -> vtime:float -> bits:float -> unit
val on_backlog : t -> node:int -> vtime:float -> unit
val on_idle : t -> node:int -> vtime:float -> unit
val on_select : t -> node:int -> vtime:float -> unit
val note_vtime : t -> node:int -> vtime:float -> unit

val credit_served : t -> node:int -> bits:float -> unit
(** One packet fully transmitted, credited to this node's W_n. *)

val on_drop : t -> node:int -> unit

val report : ?name:string -> order:int list -> t -> Stats.Report.t
(** One row per node id of [order], in that order — the same
    {!Stats.Report} shape every instrument in [lib/stats] exports. *)
