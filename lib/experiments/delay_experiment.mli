(** The §5.1 delay experiments (Figs. 4–7): RT-1's packet delay under a
    hierarchical scheduler built from a given one-level discipline, for the
    paper's three traffic scenarios.

    Fig. 3 hierarchy ({!Paper_hierarchies.fig3}); RT-1 is a deterministic
    on/off source (25 ms on / 75 ms off from t = 200 ms) at 4× duty so its
    average equals its 9 Mbps guarantee; BE-1 is continuously backlogged;
    the background is:

    - {b Scenario 1} (Fig. 4): PS-n constant-rate at their guaranteed rates,
      CS-n packet trains on;
    - {b Scenario 2} (Fig. 6): PS-n Poisson at 1.5× guaranteed (persistent
      overload), CS-n off;
    - {b Scenario 3} (Fig. 7): overloaded Poisson {e and} CS-n on. *)

type scenario = S1_constant_and_trains | S2_overloaded_poisson | S3_overload_and_trains

val scenario_name : scenario -> string

type result = {
  discipline : string;
  scenario : scenario;
  delays : Stats.Delay_stats.t;      (** RT-1 per-packet delay *)
  lag : Stats.Service_curve.t;       (** RT-1 arrivals vs service, packets *)
  rt_packets : int;
  drops : int;
  link_utilization : float;          (** fraction of horizon the link was busy *)
}

val run :
  ?rng:Engine.Rng.t ->
  ?engine:Hpfq.Hier_engine.choice ->
  factory:Sched.Sched_intf.factory ->
  scenario:scenario ->
  ?horizon:float ->
  ?seed:int64 ->
  unit ->
  result
(** Default [horizon] 10 s, [seed] 1. Deterministic given both. [rng]
    overrides the seed-derived generator — {!run_sweep}
    passes stable per-replication streams derived with
    {!Engine.Rng.for_task}. [engine] selects the hierarchy engine
    (default [`Auto]: flat for WF²Q+, generic otherwise).
    @raise Invalid_argument if [horizon] is not > 0 (NaN included). *)

val run_sweep :
  ?pool:Parallel.Pool.t ->
  ?engine:Hpfq.Hier_engine.choice ->
  factories:Sched.Sched_intf.factory list ->
  scenario:scenario ->
  ?horizon:float ->
  ?seed:int64 ->
  ?replications:int ->
  unit ->
  result list
(** The discipline × replication grid (replication-inner order), fanned
    out on [pool] (default: sequential). Replication [k] of {e every}
    discipline draws from [Rng.for_task (Rng.create seed) k], so the
    disciplines face identical arrival streams and the output is
    bit-identical for any worker count. *)

val rt1_delay_bound : float
(** Corollary 2's bound for RT-1 in the Fig. 3 tree (uses
    {!Paper_hierarchies.rt1_sigma_bits}). *)

val summary_row : result -> string
(** One formatted line: discipline, scenario, max/mean/p99 delay (ms),
    max service lag (packets). *)
