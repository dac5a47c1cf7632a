(** Hot-path throughput benchmark backing `dune exec bench/main.exe -- perf`.

    Measures packets/second, ns per scheduling cycle and minor-heap words
    per packet for one-level WF²Q+ (N = 2⁴..2¹⁴) and end-to-end H-WF²Q+
    (uniform trees, depth × fan-out grid), then writes a machine-readable
    report so successive PRs can diff perf baselines. *)

val report : quick:bool -> Json.t
(** Measure and print the grid and return the report ([Suite.run] writes
    it). [quick] shrinks sizes/iterations to smoke-test levels. Grid cells
    fan out on [Parallel.Pool.create ()] ([HPFQ_JOBS], default 1):
    concurrent cells contend for the machine, so parallel numbers are
    comparable only with other runs at the same [-j]; the committed
    baseline and {!probe} measure sequentially. *)

val probe : quick:bool -> Json.t
(** The guard's fresh side: [headline.pkts_per_sec] from {!headline} and
    [headline.minor_words_per_pkt] from one 400k-cycle run at N = 4096
    ([quick]: N = 64, 2k cycles, one sample), with tracing disabled. *)

val headline : ?n:int -> ?iters:int -> ?runs:int -> unit -> float
(** Best one-level WF²Q+ packets/second at [n] sessions (default 4096)
    over [runs] measurements (default 9 × 1M iterations) — machine
    interference only slows samples, so best-of-N is the stable min-time
    estimator for back-to-back comparison of builds on the same machine.
    Both the report's [headline.pkts_per_sec] and {!probe} are measured
    with it, so the guard compares like with like; the
    per-N table rows use shorter single samples and read systematically
    faster. *)

val loaded_policy_with :
  Sched.Sched_intf.factory -> int -> Sched.Sched_intf.t * (unit -> unit)
(** A policy instance with [n] perpetually backlogged unit-packet sessions
    plus a closure running one full scheduling cycle
    (select + arrive + requeue) per call. The policy is returned alongside
    the cycle so callers can install an observer on it — the tracing-overhead
    bench measures the same loop with and without one. *)

val loaded_policy : Sched.Sched_intf.factory -> int -> unit -> unit
(** [snd (loaded_policy_with factory n)]. *)

val time_loop : (unit -> unit) -> iters:int -> float * float
(** Warm the closure (up to 1000 calls), then run it [iters] times:
    [(wall seconds, minor-heap words allocated)]. *)

(** [Gc.quick_stat] deltas captured over a measured run — the collector
    pressure the pooled packet plane removes. Reported per server row and
    as the report's top-level ["gc"] section. *)
type gc_delta = {
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_promoted_words : float;
  gd_minor_words : float;
  gd_major_words : float;
}

val server_throughput :
  n:int ->
  burst_max:int ->
  target_pkts:int ->
  unit ->
  float * float * gc_delta * float
(** Saturated one-level throughput through the full Server + Simulator
    event loop: [n] unit-packet sessions fed by pre-scheduled arrival
    ticks ({!server_batched_burst} packets per tick, exactly the link
    rate), run to a horizon of [target_pkts] departures at link rate 1.
    Returns [(packets/second, minor words/packet, GC deltas, packets)].
    Unlike
    {!loaded_policy}'s bare policy cycle, this pays event-set cost per
    packet — per-event arrivals plus a departure re-arm at
    [burst_max = 1]; one grouped arrival event per tick plus inline
    burst-drained departures above it — which is what batching amortizes.
    Departure times are bit-identical at every [burst_max]; the report's
    [batched_headline] compares [burst_max = 1] against
    {!server_batched_burst}. *)

val server_batched_burst : int
(** Burst cap used for the batched side of [batched_headline] (64). *)

val hier_throughput_spec :
  ?engine:Hpfq.Hier_engine.choice ->
  spec:Hpfq.Class_tree.t ->
  factory:Sched.Sched_intf.factory ->
  pkt_bits:float ->
  target_pkts:int ->
  unit ->
  float * float * float
(** Saturated steady-state throughput of one hierarchy: every leaf is kept
    at a two-packet backlog (prime with two, re-inject on depart) and the
    simulation runs for a horizon sized to [target_pkts] departures at the
    root rate. Returns [(leaf count, packets/second, minor words/packet)].
    [engine] picks the hierarchy engine (default [`Auto]) — the hier bench
    A/Bs [`Generic] against [`Flat] with this function. *)

val uniform_spec : depth:int -> fanout:int -> name:string -> rate:float -> Hpfq.Class_tree.t
(** The balanced tree the depth × fan-out grids run on ([depth] 0 = leaf;
    children split the parent rate evenly). *)
