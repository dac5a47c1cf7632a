(** The §5.2 link-sharing experiment (Figs. 8–9): five long-lived TCP
    sessions at different depths of the Fig. 8 hierarchy, with one on/off
    source per level toggling per the paper's schedule.

    Two runs over the same schedule:
    - {e packet}: H-PFQ ({!Hpfq.Hier}) with real {!Tcp.Tcp_reno} sources
      adapting through queue drops (Fig. 9(a));
    - {e fluid ideal}: {!Fluid.Hgps} with TCP leaves modelled as
      persistently backlogged (Fig. 9(b)'s "ideal" curves).

    Bandwidth is measured the paper's way: exponential averaging over 50 ms
    windows. *)

type series = (float * float) list
(** [(time, bits-per-second)]. *)

type interval_row = { leaf : string; measured : float; ideal : float }

type interval = {
  label : string;
  t0 : float;
  t1 : float;
  rows : interval_row list; (* one per measured TCP session *)
}

type result = {
  discipline : string;
  measured : (string * series) list; (** per TCP leaf, packet system *)
  ideal : (string * series) list;    (** per TCP leaf, fluid H-GPS *)
  intervals : interval list;         (** steady-state averages per phase *)
  tcp_stats : (string * int * int) list; (** leaf, retransmits, timeouts *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?engine:Hpfq.Hier_engine.choice ->
  ?factory:Sched.Sched_intf.factory ->
  ?horizon:float ->
  unit ->
  result
(** Defaults: WF²Q+, {!Paper_hierarchies.fig8_horizon}; the experiment
    draws no random numbers. The
    packet run and the fluid ideal are independent; with a [pool] of two
    or more workers they run on separate domains (the result is identical
    either way — both halves are deterministic). [engine] selects the
    hierarchy engine (default [`Auto]).
    @raise Invalid_argument if [horizon] is not > 0 (NaN included). *)

val summary : Format.formatter -> result -> unit
(** Per-interval table: measured vs ideal bandwidth for each TCP session
    (the numeric content of Fig. 9), TCP health, and the mean relative
    tracking error over every phase from 0.5 s on. *)
