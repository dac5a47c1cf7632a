(* The six bench suites, their report shapes and their guards. Every
   bound is here, with its value on a dedicated host ([local]) and on a
   shared CI runner ([ci]). No throughput gate reads a committed number:
   each is a same-run ratio between the two code paths it justifies (or
   an absolute floor, or a cores-scaled speedup), so its verdict does not
   depend on the machine that wrote the baseline. Other tenants' bursts
   still land on one side of a pair, and a CI runner has more of them,
   so there the ratio floors are looser, while hashes, allocation
   ceilings and the churn floor stay binding. A suite asks only what
   benchmark/ does not measure: the one-level, flat-hierarchy and
   batched-replay throughput are its port_4k, tree_4k_d6 and imix_replay
   workloads. *)

open Bench_kit.Suite

let rows keys = List.map (fun k -> [ "rows"; k ]) keys
let headline k = [ "headline"; k ]

let events =
  {
    name = "events";
    title = "EVENTS: pending-set churn, calendar queue vs slot heap";
    out = "BENCH_events.json";
    report = Bench_kit.Events.report;
    required =
      [ [ "schema" ] ]
      @ rows
          [ "dist"; "n"; "calendar_over_heap"; "events_per_sec"; "minor_words_per_event" ];
    probe = Bench_kit.Events.probe;
    guards =
      [
        (* the calendar is the simulator's set only while it beats the heap *)
        Ratio { path = [ "calendar_over_heap" ]; floor = { local = 1.55; ci = 1.0 } };
      ];
  }

let hier =
  {
    name = "hier";
    title = "HIER: H-WF2Q+ engine A/B, generic vs flat";
    out = "BENCH_hier.json";
    report = Hier_bench.report;
    required =
      [ [ "schema" ]; headline "flat_over_generic" ]
      @ rows
          [
            "topology";
            "leaves";
            "flat_over_generic";
            "pkts_per_sec";
            "flat_minor_words_per_pkt";
            "generic_minor_words_per_pkt";
          ];
    probe = Hier_bench.probe;
    guards =
      [
        (* the flat engine's reason to exist, on the deep 4096-leaf tree *)
        Ratio { path = [ "flat_over_generic" ]; floor = { local = 1.7; ci = 1.2 } };
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
          [ "batched_over_per_packet"; "server_batched_over_per_packet"; "depart_hash" ]
      @ rows [ "burst_max"; "speedup"; "pkts_per_sec"; "depart_hash" ]
      @ List.map (fun k -> [ "server_rows"; k ]) [ "burst_max"; "speedup"; "pkts_per_sec" ];
    probe = Replay_bench.probe;
    guards =
      [
        Hash { fresh = headline "depart_hash"; baseline = headline "depart_hash" };
        Hash { fresh = headline "per_packet_depart_hash"; baseline = headline "depart_hash" };
        (* batching's gain where it pays: the saturated server, burst 64 over 1 *)
        Ratio
          { path = [ "server_batched_over_per_packet" ]; floor = { local = 1.4; ci = 1.2 } };
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
            "churn_over_heap";
            "events_per_sec";
            "churn_events_per_sec";
            "minor_words_per_event";
            "live_after";
          ];
    probe = Churn_bench.probe;
    guards =
      [
        (* the session machinery's cost over the bare heap work it does *)
        Ratio { path = [ "churn_over_heap" ]; floor = { local = 0.6; ci = 0.3 } };
        (* the acceptance number; ~15x headroom, so binding on CI too *)
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
      [ [ "schema" ]; [ "cores" ] ] @ rows [ "jobs"; "speedup"; "expected_floor" ];
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
      @ rows [ "links"; "jobs"; "speedup"; "expected_floor"; "device_hash" ];
    probe = Shard_bench.probe;
    guards = [ Scaling { slack = { local = 0.25; ci = 0.6 } } ];
  }

let all = [ events; hier; replay; churn; parallel; shard ]
