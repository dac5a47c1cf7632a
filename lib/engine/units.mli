(** Unit conventions and conversions used throughout the repository.

    Internally everything is SI: time in {e seconds}, sizes in {e bits},
    rates in {e bits per second}. These helpers exist so experiment code can
    be written in the paper's units (Mbps, ms, KB packets) without sprinkling
    magic constants. *)

val bits_of_bytes : float -> float
val bits_of_kilobytes : float -> float
val mbps : float -> float
(** [mbps x] is [x] megabits/second expressed in bits/second. *)

val kbps : float -> float
val ms : float -> float
(** [ms x] is [x] milliseconds expressed in seconds. *)

val us : float -> float
val seconds_to_ms : float -> float

val transmission_time : bits:float -> rate:float -> float
(** Time to serialise [bits] onto a link of [rate] bits/second. *)

val pp_time : Format.formatter -> float -> unit
(** Render a time with an adaptive unit (s / ms / µs). *)

val pp_rate : Format.formatter -> float -> unit
(** Render a rate with an adaptive unit (bps / Kbps / Mbps / Gbps). *)
