(* The eight bench suites, their report shapes and their guards. Every
   bound is here, with its value on a dedicated host ([local]) and on a
   shared CI runner ([ci]): CI runners are noisy and the committed
   baselines come from a dedicated machine, so there the throughput
   guards are smoke tests, while hashes, allocation ceilings and the
   churn floor stay binding. *)

open Bench_kit.Suite

let rows keys = List.map (fun k -> [ "rows"; k ]) keys
let headline k = [ "headline"; k ]

let perf =
  {
    name = "perf";
    title = "PERF: hot-path throughput";
    out = "BENCH_hotpath.json";
    report = Bench_kit.Perf.report;
    required =
      [ [ "schema" ]; [ "hier" ] ]
      @ List.map
          (fun k -> [ "one_level"; k ])
          [ "pkts_per_sec"; "ns_per_select"; "minor_words_per_pkt" ];
    probe = Bench_kit.Perf.probe;
    guards =
      [
        Relative { path = headline "pkts_per_sec"; tol = { local = 0.05; ci = 0.5 } };
        Ceiling { path = headline "minor_words_per_pkt" };
      ];
  }

let events =
  {
    name = "events";
    title = "EVENTS: pending-set churn, calendar queue";
    out = "BENCH_events.json";
    report = Bench_kit.Events.report;
    required =
      [ [ "schema" ] ]
      @ rows [ "dist"; "n"; "events_per_sec"; "minor_words_per_event" ];
    probe = Bench_kit.Events.probe;
    guards =
      [
        Relative
          { path = headline "calendar_events_per_sec"; tol = { local = 0.2; ci = 0.5 } };
      ];
  }

let hier =
  {
    name = "hier";
    title = "HIER: H-WF2Q+ engine A/B, generic vs flat";
    out = "BENCH_hier.json";
    report = Hier_bench.report;
    required =
      [
        [ "schema" ];
        headline "flat_pkts_per_sec";
        headline "generic_pkts_per_sec";
        [ "speedups"; "flat_over_generic" ];
      ]
      @ rows [ "topology"; "leaves"; "engine"; "pkts_per_sec"; "minor_words_per_pkt" ];
    probe = Hier_bench.probe;
    guards =
      [
        Relative { path = headline "flat_pkts_per_sec"; tol = { local = 0.2; ci = 0.5 } };
        (* the flat engine must never be slower than the generic walk *)
        Floor { path = headline "speedup"; floor = both 1.0 };
        Ceiling { path = headline "flat_minor_words_per_pkt" };
      ];
  }

let replay =
  {
    name = "replay";
    title = "REPLAY: internet-mix trace, burst_max ladder";
    out = "BENCH_replay.json";
    report = Replay_bench.report;
    required =
      [ [ "schema" ]; [ "workload" ] ]
      @ List.map headline
          [ "batched_pkts_per_sec"; "per_packet_pkts_per_sec"; "speedup"; "depart_hash" ]
      @ rows [ "burst_max"; "pkts_per_sec"; "depart_hash" ];
    probe = Replay_bench.probe;
    guards =
      [
        Hash { fresh = headline "depart_hash"; baseline = headline "depart_hash" };
        Hash { fresh = headline "per_packet_depart_hash"; baseline = headline "depart_hash" };
        Relative
          { path = headline "batched_pkts_per_sec"; tol = { local = 0.2; ci = 0.5 } };
        Floor { path = headline "speedup"; floor = { local = 1.0; ci = 0.0 } };
        Ceiling { path = headline "batched_minor_words_per_pkt" };
      ];
  }

let churn =
  {
    name = "churn";
    title = "CHURN: session lifecycle at 10^5-10^6 sessions";
    out = "BENCH_churn.json";
    report = Churn_bench.report;
    required =
      [ [ "schema" ]; headline "churn_events_per_sec"; headline "floor_events_per_sec" ]
      @ rows
          [
            "engine";
            "sessions";
            "ramp_opens_per_sec";
            "churn_events_per_sec";
            "minor_words_per_event";
            "live_after";
          ];
    probe = Churn_bench.probe;
    guards =
      [
        Relative
          { path = headline "churn_events_per_sec"; tol = { local = 0.2; ci = 0.5 } };
        (* the acceptance number; ~30x headroom, so binding on CI too *)
        Floor { path = headline "churn_events_per_sec"; floor = both Churn_bench.floor };
      ];
  }

let parallel =
  {
    name = "parallel";
    title = "PARALLEL: wfi sweep scaling vs -j";
    out = "BENCH_parallel.json";
    report = Parallel_bench.report;
    required =
      [ [ "schema" ]; [ "cores" ] ] @ rows [ "jobs"; "wall_s"; "speedup"; "expected_floor" ];
    probe = Parallel_bench.probe;
    guards = [ Scaling { slack = { local = 0.25; ci = 0.6 } } ];
  }

let shard =
  {
    name = "shard";
    title = "SHARD: multi-port device scaling vs -j";
    out = "BENCH_shard.json";
    report = Shard_bench.report;
    required =
      [ [ "schema" ]; [ "cores" ] ]
      @ rows [ "links"; "jobs"; "pkts_per_sec"; "speedup"; "expected_floor"; "device_hash" ];
    probe = Shard_bench.probe;
    guards = [ Scaling { slack = { local = 0.25; ci = 0.6 } } ];
  }

let hiershard =
  {
    name = "hiershard";
    title = "HIERSHARD: one tree, subtree shards x epoch";
    out = "BENCH_hiershard.json";
    report = Hiershard_bench.report;
    required =
      [ [ "schema" ]; [ "cores" ]; [ "flat_pkts_per_sec" ]; [ "flat_depart_hash" ] ]
      @ rows [ "shards"; "epoch"; "workers"; "pkts_per_sec"; "ratio_vs_flat"; "depart_hash" ];
    probe = Hiershard_bench.probe;
    guards = [ Scaling { slack = { local = 0.35; ci = 0.6 } } ];
  }

let all = [ perf; events; hier; replay; churn; parallel; shard; hiershard ]
