(** Trace-replay benchmark backing `dune exec bench/main.exe -- replay`.

    Replays one synthetic internet-mix trace (see
    {!Traffic.Trace.internet_mix}) through the same H-WF²Q+ hierarchy at
    every rung of a burst_max ladder (1, 2, 8, 64, unbounded), checks the
    departure hash is identical on every rung — the burst-drain
    determinism contract on a realistic workload — and writes
    BENCH_replay.json with the batched-vs-per-packet speedup headline. *)

type row = {
  burst : int;  (** burst_max for this rung ([max_int] = unbounded) *)
  arrivals : int;
  departures : int;
  pkts_per_sec : float;
  minor_words_per_pkt : float;
  depart_hash : string;  (** order-sensitive hash of (flow, seq, time) *)
}

val batched_burst : int
(** The ladder rung the headline speedup compares against burst 1 (64). *)

val scale_rates : float -> Hpfq.Class_tree.t -> Hpfq.Class_tree.t
(** Multiply every node's rate by a factor, preserving relative shares —
    how a unit-rate spec is sized to a trace's offered load. *)

val measure :
  ?engine:Hpfq.Hier_engine.choice ->
  spec:Hpfq.Class_tree.t ->
  trace:Traffic.Trace.event list ->
  burst:int ->
  unit ->
  row
(** Replay [trace] through one H-WF²Q+ hierarchy built from [spec] at the
    given burst cap and drain it to completion: arrivals are pre-scheduled
    (per-event at burst 1, grouped by timestamp above it), trace events
    naming leaves absent from [spec] are skipped, and the row carries the
    departure count, throughput and order-sensitive departure hash. The
    hash is a pure function of ([spec], [trace]) — identical at every
    [burst] and on every machine. *)

val report : quick:bool -> Bench_kit.Json.t
(** Run the ladder and return the report, then print (without recording)
    {!Bench_kit.Perf.server_throughput} at burst_max 1, 8 and 64 for
    N = 4096 — the batching gain of a one-level server, for comparison.
    [quick] shrinks the trace and the server runs to smoke-test size.
    @raise Failure if a rung does not drain the trace, or any rung's
    departure hash or count disagrees with the others. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: [batched_over_per_packet],
    {!Bench_kit.Suite.pairs} of the batched (burst 64) and per-packet
    rungs' rates; the batched rung's
    [headline.batched_minor_words_per_pkt]; and both rungs' hashes
    ([headline.depart_hash] for the batched one,
    [headline.per_packet_depart_hash]). [quick] uses the smoke-test
    trace, whose hash only a quick report carries. *)
