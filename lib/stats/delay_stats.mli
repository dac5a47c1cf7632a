(** Per-flow packet-delay recorder (the instrument behind Figs. 4, 6, 7).

    Records [(departure_time, delay)] samples; summary statistics are exact
    (computed from retained samples). *)

type t

val create : unit -> t
val record : t -> time:float -> delay:float -> unit
val count : t -> int
val max_delay : t -> float
(** 0 when empty. *)

val min_delay : t -> float
val mean : t -> float
val stddev : t -> float
val percentile : t -> float -> float
(** [percentile t 99.0]; nearest-rank on the sorted samples.
    @raise Invalid_argument outside [0,100] or when empty. *)

val samples : t -> (float * float) list
(** In recording order. *)

val series_max_over_windows : t -> window:float -> (float * float) list
(** Max delay per [window]-second bin of departure time — the shape plotted
    in the paper's delay figures. *)

val report : ?name:string -> t -> Report.t
(** The samples as a [time,delay] table. *)

