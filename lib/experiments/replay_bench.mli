(** Trace-replay benchmark backing `dune exec bench/main.exe -- replay`.

    Replays one synthetic internet-mix trace (see
    {!Traffic.Trace.internet_mix}) through the same H-WF²Q+ hierarchy at
    every rung of a burst_max ladder (1, 2, 8, 64, unbounded), checks that
    every replay departs identically — the burst-drain determinism
    contract on a realistic workload — and runs the same ladder on a
    saturated one-level server, where batching pays. *)

type row = {
  burst : int;  (** burst_max for this rung ([max_int] = unbounded) *)
  arrivals : int;
  departures : int;
  pkts_per_sec : float;
  minor_words_per_pkt : float;
  depart_hash : string;  (** order-sensitive hash of (flow, seq, time) *)
}

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
(** Measure both ladders and return the report. [rows]: each trace rung
    above 1, its rate over burst 1's as {!Bench_kit.Suite.pairs}, with its
    hash and words/pkt. [server_rows]: {!Bench_kit.Perf.server_throughput}
    (N = 4096) at burst_max 8 and 64 over burst_max 1, as pairs. [quick]
    shrinks the trace and the server runs to smoke-test size.
    @raise Failure if a replay does not drain the trace, or its departure
    hash or count disagrees with the first replay's. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: [server_batched_over_per_packet], the
    report's burst-64 server row; one batched (burst 64) replay's
    [headline.batched_minor_words_per_pkt] and [headline.depart_hash];
    and one per-packet replay's [headline.per_packet_depart_hash].
    [quick] uses the smoke-test trace, whose hash only a quick report
    carries. *)
