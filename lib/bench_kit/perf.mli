(** Throughput loops shared by the bench suites, [bench complexity],
    [bench trace-overhead], the allocation test in test_bench_smoke and
    [benchmark/]. Throughput itself is judged by [benchmark/]'s workloads
    ([port_4k] runs {!loaded_policy_with}'s cycle under [--trace 1]). *)

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

val server_throughput :
  n:int -> burst_max:int -> target_pkts:int -> unit -> float * float
(** Saturated one-level WF²Q+ throughput through the full Server +
    Simulator event loop: [n] (a power of two) unit-packet sessions fed
    by pre-scheduled arrival ticks of 64 packets each, exactly the link
    rate, run to a horizon of [target_pkts] departures at link rate 1.
    Returns [(packets/second, minor words/packet)]. Unlike
    {!loaded_policy}'s bare policy cycle, this pays event-set cost per
    packet — per-event arrivals plus a departure re-arm at
    [burst_max = 1]; one grouped arrival event per tick plus inline
    burst-drained departures above it — which is what batching amortizes.
    Departure times are bit-identical at every [burst_max]. *)

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
(** A balanced tree ([depth] 0 = leaf; children split the parent rate
    evenly). *)
