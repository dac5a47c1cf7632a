(* Every metric the benchmark prints: name, unit, and which part of a
   run measures it. BENCHMARK.json at the repository root lists
   the same names and units; the test suite keeps the two in step. *)

type source =
  | Measured  (** the untraced run *)
  | Traced  (** the traced run's spans and GC events *)
  | Probe  (** a loop over one layer's public calls *)
  | Derived  (** computed from the other runs' results *)

type t = { name : string; unit_ : string; source : source }

let m name unit_ source = { name; unit_; source }

let end_to_end =
  [
    m "pkts_per_s" "pkts/s" Measured;
    m "setup_s" "s" Measured;
    m "peak_heap_mb" "MB" Measured;
    m "sim_delay_p50_us" "us" Measured;
    m "sim_delay_p999_us" "us" Measured;
  ]

let per_layer =
  [
    m "prioq.heap4_ns_per_op" "ns" Probe;
    m "sched.wf2q_plus_ns_per_cycle" "ns" Probe;
    m "net.pool_fifo_ns_per_pkt" "ns" Probe;
    m "engine.event_ns_per_event" "ns" Probe;
    m "traffic.decode_ns_per_event" "ns" Probe;
    m "engine.run_self_ns_per_pkt" "ns" Traced;
    m "core.inject_ns_per_pkt" "ns" Traced;
    m "core.hier_flat.ns_per_level" "ns" Traced;
    m "traffic.replay_schedule_ns_per_pkt" "ns" Traced;
    m "bench.hook_self_ns_per_pkt" "ns" Traced;
    m "engine.pool_capacity" "count" Measured;
    m "engine.resizes" "count" Measured;
    m "gc.minor_words_per_pkt" "words" Measured;
    m "gc.promoted_words_per_pkt" "words" Measured;
    m "gc.minor_collections_per_mpkt" "count" Measured;
    m "gc.major_collections_per_mpkt" "count" Measured;
    m "gc.busy_frac" "fraction" Traced;
    m "window.ns_per_pkt_p50" "ns" Measured;
    m "window.ns_per_pkt_p99" "ns" Measured;
    m "shard.subtree.sync_rounds_per_kpkt" "count" Measured;
    m "shard.subtree.worker_speedup" "ratio" Derived;
    m "trace.overhead_frac" "fraction" Derived;
    m "loss_frac" "fraction" Measured;
    m "failed_frac" "fraction" Derived;
  ]
