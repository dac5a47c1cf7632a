(** One-level fluid GPS (paper §2.1): a {!Hgps} over a flat tree, with a
    session-indexed API convenient for walkthroughs and tests (Fig. 2's GPS
    timeline, V_GPS cross-checks, fairness properties eqs. 1–3). *)

type t

val create : rate:float -> session_rates:float list -> ?on_packet_finish:(Net.Packet.t -> float -> unit) -> unit -> t
(** Sessions are numbered 0.. in list order.
    @raise Invalid_argument if rates don't fit the server rate. *)

val arrive : t -> at:float -> session:int -> size_bits:float -> Net.Packet.t
val advance : t -> to_:float -> unit
val now : t -> float
val served_bits : t -> session:int -> float
val backlog_bits : t -> session:int -> float
val set_persistent : t -> at:float -> session:int -> bool -> unit
val busy : t -> bool
