(** Empirical Worst-case Fair Index measurement (the Theorem 3/4 check, and
    the paper's claim that WFQ's WFI "grows proportionally to the number of
    queues" while WF²Q+'s does not).

    Construction (a scaled Fig. 2): session 0 owns half the unit link; [n]
    background sessions share the other half. Session 0 bursts [n] unit
    packets at t = 0 — under WFQ they are all served back-to-back, putting
    session 0 maximally ahead of its fluid schedule. The instant session 0's
    queue drains, a {e probe} packet arrives at the (now empty) queue. Per
    Definition 1 its delay must satisfy
    [d − a ≤ Q(a)/r_0 + A_{0,s}] with [Q(a) = L], so the measured T-WFI is
    [d − a − L/r_0]. *)

type measurement = {
  discipline : string;
  n : int;                  (** background sessions *)
  measured_twfi : float;    (** seconds *)
  wf2q_plus_bound : float;  (** Theorem 4's T-WFI, same workload *)
  probe_delay : float;
}

val measure :
  factory:Sched.Sched_intf.factory ->
  n:int ->
  unit ->
  measurement
(** One probe run on a private simulator. *)

val sweep :
  ?pool:Parallel.Pool.t ->
  factory:Sched.Sched_intf.factory ->
  ns:int list ->
  unit ->
  measurement list
(** The N-sweep for one discipline; [{!sweep_grid}] with one factory. *)

val sweep_grid :
  ?pool:Parallel.Pool.t ->
  factories:Sched.Sched_intf.factory list ->
  ns:int list ->
  unit ->
  measurement list
(** The discipline × N grid, in row-major (factory-outer) order. Cells
    fan out on [pool] (default: sequential); each builds its own private
    simulator, and the result order is the grid order regardless of worker
    count — the output is bit-identical for any [-j]. *)
