(* Smoke test for the perf harness: run it at quick settings, re-parse the
   emitted JSON and validate the schema the perf-regression tooling relies
   on ([bench/check_bench.sh] does the same from the shell). *)

module Json = Bench_kit.Json
module Perf = Bench_kit.Perf
module Events = Bench_kit.Events

let test_quick_run_emits_valid_report () =
  let out = Filename.temp_file "bench_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      Perf.run ~quick:true ~out ();
      let report = Json.of_file out in
      (match Perf.validate report with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "invalid report: %s" (String.concat "; " problems));
      (* spot-check the metrics are sane, not just present *)
      let get name j =
        match Json.member name j with
        | Some v -> v
        | None -> Alcotest.failf "missing field %S" name
      in
      let get_float name j =
        match Json.to_float (get name j) with
        | Some f -> f
        | None -> Alcotest.failf "field %S is not a number" name
      in
      let rows =
        match Json.to_list (get "one_level" report) with
        | Some rows -> rows
        | None -> Alcotest.fail "one_level is not an array"
      in
      Alcotest.(check bool) "has one-level rows" true (rows <> []);
      List.iter
        (fun row ->
          if get_float "pkts_per_sec" row <= 0.0 then
            Alcotest.fail "pkts_per_sec not positive";
          if get_float "ns_per_select" row <= 0.0 then
            Alcotest.fail "ns_per_select not positive")
        rows)

let test_json_roundtrip () =
  let t =
    Json.Obj
      [
        ("schema", Json.Str "x");
        ("xs", Json.Arr [ Json.Num 1.5; Json.Bool true; Json.Null ]);
        ("nan_becomes_null", Json.Num Float.nan);
      ]
  in
  let s = Json.to_string t in
  let t' = Json.of_string s in
  Alcotest.(check string) "schema survives"
    "x"
    (match Json.member "schema" t' with Some (Json.Str s) -> s | _ -> "?");
  Alcotest.(check bool) "nan serialized as null" true
    (Json.member "nan_becomes_null" t' = Some Json.Null)

(* -- event-set churn suite ------------------------------------------------ *)

let test_events_quick_run_emits_valid_report () =
  let out = Filename.temp_file "bench_events_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rows = Events.run ~quick:true ~out () in
      (* quick grid: 4 distributions x 1 size x 2 backends *)
      Alcotest.(check int) "row count" 8 (List.length rows);
      List.iter
        (fun r ->
          if r.Events.events_per_sec <= 0.0 then
            Alcotest.fail "events_per_sec not positive";
          if r.Events.fired <= 0 then Alcotest.fail "nothing fired")
        rows;
      let report = Json.of_file out in
      match Events.validate report with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "invalid events report: %s" (String.concat "; " problems))

let fake_events_report eps =
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-events-v1");
      ( "headline",
        Json.Obj
          [
            ("workload", Json.Str "cancel_heavy_n65536");
            ("calendar_events_per_sec", Json.Num eps);
          ] );
    ]

let test_events_guard_verdicts () =
  let with_baseline eps f =
    let path = Filename.temp_file "bench_events_guard" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Json.to_file path (fake_events_report eps);
        f path)
  in
  let run_guard path =
    Events.guard ~baseline:path ~tol:0.05 ~min_speedup:0.0 ~n:256 ~events:4_000 ()
  in
  with_baseline 1.0 (fun path ->
      match run_guard path with
      | Ok g ->
        Alcotest.(check bool) "beats trivial baseline" true g.Events.within
      | Error e -> Alcotest.failf "events guard errored: %s" e);
  with_baseline 1e15 (fun path ->
      match run_guard path with
      | Ok g ->
        Alcotest.(check bool) "loses to absurd baseline" false g.Events.within
      | Error e -> Alcotest.failf "events guard errored: %s" e);
  match Events.guard ~baseline:"/nonexistent/BENCH_events.json" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error"

(* -- hierarchy engine A/B suite ------------------------------------------- *)

module Hbench = Experiments.Hier_bench

let test_hier_quick_run_emits_valid_report () =
  let out = Filename.temp_file "bench_hier_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rows = Hbench.run ~quick:true ~out () in
      (* quick grid: 2 topologies x 2 engines *)
      Alcotest.(check int) "row count" 4 (List.length rows);
      List.iter
        (fun r ->
          if r.Hbench.pkts_per_sec <= 0.0 then
            Alcotest.fail "pkts_per_sec not positive")
        rows;
      List.iter
        (fun engine ->
          Alcotest.(check bool)
            (Printf.sprintf "fig3 has a %s row" (Hbench.engine_name engine))
            true
            (List.exists
               (fun r -> r.Hbench.topology = "fig3" && r.Hbench.engine = engine)
               rows))
        [ Hbench.Generic; Hbench.Flat ];
      let report = Json.of_file out in
      match Hbench.validate report with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "invalid hier report: %s" (String.concat "; " problems))

let fake_hier_report pps =
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-hier-v1");
      ( "headline",
        Json.Obj
          [
            ("workload", Json.Str "fig3_saturated");
            ("flat_pkts_per_sec", Json.Num pps);
          ] );
    ]

let test_hier_guard_verdicts () =
  let with_baseline pps f =
    let path = Filename.temp_file "bench_hier_guard" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Json.to_file path (fake_hier_report pps);
        f path)
  in
  let run_guard path =
    Hbench.guard ~baseline:path ~tol:0.05 ~min_speedup:0.0 ~target_pkts:500 ()
  in
  with_baseline 1.0 (fun path ->
      match run_guard path with
      | Ok g -> Alcotest.(check bool) "beats trivial baseline" true g.Hbench.within
      | Error e -> Alcotest.failf "hier guard errored: %s" e);
  with_baseline 1e15 (fun path ->
      match run_guard path with
      | Ok g ->
        Alcotest.(check bool) "loses to absurd baseline" false g.Hbench.within
      | Error e -> Alcotest.failf "hier guard errored: %s" e);
  match Hbench.guard ~baseline:"/nonexistent/BENCH_hier.json" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error"

(* -- trace-replay suite ---------------------------------------------------- *)

module Rbench = Experiments.Replay_bench

let test_replay_quick_run_emits_valid_report () =
  let out = Filename.temp_file "bench_replay_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rows = Rbench.run ~quick:true ~out () in
      (* ladder: 1, 2, 8, 64, unbounded *)
      Alcotest.(check int) "row count" 5 (List.length rows);
      List.iter
        (fun r ->
          if r.Rbench.pkts_per_sec <= 0.0 then
            Alcotest.fail "pkts_per_sec not positive";
          if r.Rbench.departures <> r.Rbench.arrivals then
            Alcotest.fail "trace did not fully drain")
        rows;
      (* run () itself fails on divergence; assert the invariant where a
         reader looks first: one distinct hash across the whole ladder *)
      Alcotest.(check int) "one distinct departure hash" 1
        (List.length
           (List.sort_uniq compare (List.map (fun r -> r.Rbench.depart_hash) rows)));
      let report = Json.of_file out in
      match Rbench.validate report with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "invalid replay report: %s" (String.concat "; " problems))

let test_replay_guard_verdicts () =
  let with_file f =
    let path = Filename.temp_file "bench_replay_guard" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  (* a real quick run as its own baseline: the hashes match by
     construction, so the guard must pass outright *)
  with_file (fun path ->
      ignore (Rbench.run ~quick:true ~out:path ());
      (match Rbench.guard ~baseline:path ~tol:0.99 ~min_speedup:0.0 ~quick:true () with
      | Ok g ->
        Alcotest.(check bool) "hash matches its own run" true g.Rbench.hash_ok;
        Alcotest.(check bool) "passes against its own run" true g.Rbench.within
      | Error e -> Alcotest.failf "replay guard errored: %s" e);
      (* doctor the committed hash: the gate must fire with no tolerance *)
      let doctored =
        Json.Obj
          [
            ("schema", Json.Str "hpfq-bench-replay-v1");
            ( "headline",
              Json.Obj
                [
                  ("batched_pkts_per_sec", Json.Num 1.0);
                  ("depart_hash", Json.Str "ffffffffffffffff");
                ] );
          ]
      in
      Json.to_file path doctored;
      match Rbench.guard ~baseline:path ~tol:0.99 ~min_speedup:0.0 ~quick:true () with
      | Ok g ->
        Alcotest.(check bool) "doctored hash detected" false g.Rbench.hash_ok;
        Alcotest.(check bool) "doctored hash fails the gate" false g.Rbench.within
      | Error e -> Alcotest.failf "replay guard errored: %s" e);
  match Rbench.guard ~baseline:"/nonexistent/BENCH_replay.json" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error"

(* -- session-lifecycle churn suite ---------------------------------------- *)

module Cbench = Experiments.Churn_bench

let test_churn_quick_run_emits_valid_report () =
  let out = Filename.temp_file "bench_churn_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rows = Cbench.run ~quick:true ~out () in
      (* quick grid: 1 session count x 2 engines *)
      Alcotest.(check int) "row count" 2 (List.length rows);
      List.iter
        (fun r ->
          if r.Cbench.churn_events_per_sec <= 0.0 then
            Alcotest.fail "churn_events_per_sec not positive";
          if r.Cbench.ramp_opens_per_sec <= 0.0 then
            Alcotest.fail "ramp_opens_per_sec not positive";
          (* the loop repays every close with a reopen *)
          Alcotest.(check int) "live sessions conserved" r.Cbench.sessions
            r.Cbench.live_after)
        rows;
      let report = Json.of_file out in
      match Cbench.validate report with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "invalid churn report: %s" (String.concat "; " problems))

let fake_churn_report eps =
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-churn-v1");
      ( "headline",
        Json.Obj
          [
            ("workload", Json.Str "idle-open/backlog/close-drop/reopen churn");
            ("churn_events_per_sec", Json.Num eps);
          ] );
    ]

let test_churn_guard_verdicts () =
  let with_baseline eps f =
    let path = Filename.temp_file "bench_churn_guard" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Json.to_file path (fake_churn_report eps);
        f path)
  in
  let run_guard ?(floor = 0.0) path =
    Cbench.guard ~baseline:path ~tol:0.05 ~floor ~sessions:1_000 ~iters:5_000 ()
  in
  with_baseline 1.0 (fun path ->
      match run_guard path with
      | Ok g -> Alcotest.(check bool) "beats trivial baseline" true g.Cbench.within
      | Error e -> Alcotest.failf "churn guard errored: %s" e);
  with_baseline 1e15 (fun path ->
      match run_guard path with
      | Ok g ->
        Alcotest.(check bool) "loses to absurd baseline" false g.Cbench.within
      | Error e -> Alcotest.failf "churn guard errored: %s" e);
  with_baseline 1.0 (fun path ->
      match run_guard ~floor:1e15 path with
      | Ok g ->
        Alcotest.(check bool) "absolute floor gates independently" false
          g.Cbench.within
      | Error e -> Alcotest.failf "churn guard errored: %s" e);
  match Cbench.guard ~baseline:"/nonexistent/BENCH_churn.json" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error"

(* -- multicore scaling suite ---------------------------------------------- *)

module Pbench = Experiments.Parallel_bench

let test_parallel_quick_run_emits_valid_report () =
  let out = Filename.temp_file "bench_parallel_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rows = Pbench.run ~quick:true ~out () in
      Alcotest.(check (list int))
        "one row per ladder rung" Pbench.jobs_ladder
        (List.map (fun r -> r.Pbench.jobs) rows);
      (match List.find_opt (fun r -> r.Pbench.jobs = 1) rows with
      | Some r ->
        Alcotest.(check (float 1e-9)) "-j1 speedup is 1 by definition" 1.0 r.Pbench.speedup
      | None -> Alcotest.fail "no -j1 rung");
      List.iter
        (fun r ->
          if r.Pbench.wall_s <= 0.0 then Alcotest.fail "wall clock not positive")
        rows;
      let report = Json.of_file out in
      match Pbench.validate report with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "invalid parallel report: %s" (String.concat "; " problems))

let fake_parallel_report () =
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-parallel-v1");
      ("cores", Json.Num 8.0);
      ( "rows",
        Json.Arr
          [
            Json.Obj
              [
                ("jobs", Json.Num 1.0);
                ("wall_s", Json.Num 1.0);
                ("speedup", Json.Num 1.0);
                ("expected_floor", Json.Num 1.0);
              ];
          ] );
    ]

let test_parallel_guard_verdicts () =
  let with_baseline json f =
    let path = Filename.temp_file "bench_parallel_guard" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Json.to_file path json;
        f path)
  in
  with_baseline (fake_parallel_report ()) (fun path ->
      match Pbench.guard ~baseline:path ~tol:0.5 ~quick:true () with
      | Ok g ->
        Alcotest.(check int)
          "one verdict per rung"
          (List.length Pbench.jobs_ladder)
          (List.length g.Pbench.g_rows);
        (* rungs beyond the host's cores are context, not gates *)
        List.iter
          (fun r ->
            if r.Pbench.g_jobs > g.Pbench.g_cores then
              Alcotest.(check bool)
                "oversubscribed rung not enforced" false r.Pbench.g_enforced)
          g.Pbench.g_rows;
        (* the live floor is check_bench.sh's job; here only the verdict's
           consistency with its rows, whatever this host measures *)
        List.iter
          (fun r ->
            Alcotest.(check bool)
              "g_ok is speedup >= floor" (r.Pbench.g_speedup >= r.Pbench.g_floor)
              r.Pbench.g_ok)
          g.Pbench.g_rows;
        Alcotest.(check bool)
          "g_within: every enforced rung ok"
          (List.for_all (fun r -> (not r.Pbench.g_enforced) || r.Pbench.g_ok) g.Pbench.g_rows)
          g.Pbench.g_within
      | Error e -> Alcotest.failf "parallel guard errored: %s" e);
  with_baseline (Json.Obj [ ("schema", Json.Str "hpfq-bench-parallel-v1") ])
    (fun path ->
      match Pbench.guard ~baseline:path ~quick:true () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "schema-invalid baseline should be an error");
  match Pbench.guard ~baseline:"/nonexistent/BENCH_parallel.json" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error"

(* -- sharded device suite ------------------------------------------------- *)

module Sbench = Experiments.Shard_bench

let test_shard_quick_run_emits_valid_report () =
  let out = Filename.temp_file "bench_shard_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rows = Sbench.run ~quick:true ~out () in
      Alcotest.(check int)
        "one row per (links, jobs) cell"
        (List.length (Sbench.links_grid ~quick:true) * List.length (Sbench.jobs_ladder ()))
        (List.length rows);
      (match List.find_opt (fun r -> r.Sbench.jobs = 1) rows with
      | Some r ->
        Alcotest.(check (float 1e-9)) "-j1 speedup is 1 by definition" 1.0 r.Sbench.speedup
      | None -> Alcotest.fail "no -j1 rung");
      List.iter
        (fun r ->
          if r.Sbench.pkts_per_sec <= 0.0 then
            Alcotest.fail "pkts_per_sec not positive";
          if r.Sbench.pkts <= 0 then Alcotest.fail "no packets departed")
        rows;
      (* the suite itself enforces this, but assert it where a reader
         looks first: every rung of one grid point shares one hash *)
      List.iter
        (fun links ->
          let hashes =
            List.filter_map
              (fun r -> if r.Sbench.links = links then Some r.Sbench.device_hash else None)
              rows
          in
          Alcotest.(check int)
            (Printf.sprintf "links=%d: one distinct hash" links)
            1
            (List.length (List.sort_uniq Int64.compare hashes)))
        (Sbench.links_grid ~quick:true);
      let report = Json.of_file out in
      match Sbench.validate report with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "invalid shard report: %s" (String.concat "; " problems))

let fake_shard_report () =
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-shard-v1");
      ("cores", Json.Num 8.0);
      ( "rows",
        Json.Arr
          [
            Json.Obj
              [
                ("links", Json.Num 16.0);
                ("jobs", Json.Num 1.0);
                ("pkts_per_sec", Json.Num 1.0);
                ("speedup", Json.Num 1.0);
                ("expected_floor", Json.Num 1.0);
                ("device_hash", Json.Str "0000000000000000");
              ];
          ] );
    ]

let test_shard_guard_verdicts () =
  let with_baseline json f =
    let path = Filename.temp_file "bench_shard_guard" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Json.to_file path json;
        f path)
  in
  with_baseline (fake_shard_report ()) (fun path ->
      match Sbench.guard ~baseline:path ~tol:0.5 ~quick:true () with
      | Ok g ->
        Alcotest.(check int)
          "one verdict per (links, jobs) cell"
          (List.length (Sbench.links_grid ~quick:true) * List.length (Sbench.jobs_ladder ()))
          (List.length g.Sbench.g_rows);
        List.iter
          (fun r ->
            if r.Sbench.g_jobs > g.Sbench.g_cores then
              Alcotest.(check bool)
                "oversubscribed rung not enforced" false r.Sbench.g_enforced)
          g.Sbench.g_rows;
        List.iter
          (fun r ->
            Alcotest.(check bool)
              "g_ok is speedup >= floor" (r.Sbench.g_speedup >= r.Sbench.g_floor)
              r.Sbench.g_ok)
          g.Sbench.g_rows;
        Alcotest.(check bool)
          "g_within: every enforced rung ok"
          (List.for_all (fun r -> (not r.Sbench.g_enforced) || r.Sbench.g_ok) g.Sbench.g_rows)
          g.Sbench.g_within
      | Error e -> Alcotest.failf "shard guard errored: %s" e);
  with_baseline (Json.Obj [ ("schema", Json.Str "hpfq-bench-shard-v1") ])
    (fun path ->
      match Sbench.guard ~baseline:path ~quick:true () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "schema-invalid baseline should be an error");
  match Sbench.guard ~baseline:"/nonexistent/BENCH_shard.json" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error"

(* -- subtree-sharded hierarchy suite -------------------------------------- *)

module Hsb = Experiments.Hiershard_bench

let test_hiershard_quick_run_emits_valid_report () =
  let out = Filename.temp_file "bench_hiershard_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rows = Hsb.run ~quick:true ~out () in
      Alcotest.(check int)
        "one row per (shards, epoch) cell"
        (List.length (Hsb.shards_ladder ()) * List.length (Hsb.epoch_ladder ()))
        (List.length rows);
      List.iter
        (fun r ->
          if r.Hsb.pkts_per_sec <= 0.0 then
            Alcotest.fail "pkts_per_sec not positive";
          if r.Hsb.pkts <= 0 then Alcotest.fail "no packets departed";
          Alcotest.(check bool)
            "exact flag marks exactly the epoch=1 rows"
            (r.Hsb.epoch = 1)
            r.Hsb.exact)
        rows;
      (* the suite itself enforces exactness vs the flat reference; assert
         the visible consequences: one hash across all epoch=1 cells, and
         each epoch's hash independent of the shard count *)
      List.iter
        (fun epoch ->
          let hashes =
            List.filter_map
              (fun r ->
                if r.Hsb.epoch = epoch then Some r.Hsb.depart_hash else None)
              rows
          in
          Alcotest.(check int)
            (Printf.sprintf "epoch=%d: one distinct hash across shard counts" epoch)
            1
            (List.length (List.sort_uniq Int64.compare hashes)))
        (Hsb.epoch_ladder ());
      let report = Json.of_file out in
      match Hsb.validate report with
      | Ok () -> ()
      | Error problems ->
        Alcotest.failf "invalid hiershard report: %s" (String.concat "; " problems))

let fake_hiershard_report () =
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-hiershard-v1");
      ("cores", Json.Num 8.0);
      ("flat_pkts_per_sec", Json.Num 1.0);
      ("flat_depart_hash", Json.Str "0000000000000000");
      ( "rows",
        Json.Arr
          [
            Json.Obj
              [
                ("shards", Json.Num 16.0);
                ("epoch", Json.Num 1.0);
                ("workers", Json.Num 0.0);
                ("pkts_per_sec", Json.Num 1.0);
                ("ratio_vs_flat", Json.Num 1.0);
                ("depart_hash", Json.Str "0000000000000000");
              ];
          ] );
    ]

let test_hiershard_guard_verdicts () =
  let with_baseline json f =
    let path = Filename.temp_file "bench_hiershard_guard" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Json.to_file path json;
        f path)
  in
  with_baseline (fake_hiershard_report ()) (fun path ->
      match Hsb.guard ~baseline:path ~tol:0.5 ~quick:true () with
      | Ok g ->
        Alcotest.(check int)
          "one verdict per (shards, epoch) cell"
          (List.length (Hsb.shards_ladder ()) * List.length (Hsb.epoch_ladder ()))
          (List.length g.Hsb.g_rows);
        List.iter
          (fun r ->
            if r.Hsb.g_workers + 1 > g.Hsb.g_cores then
              Alcotest.(check bool)
                "oversubscribed cell not enforced" false r.Hsb.g_enforced)
          g.Hsb.g_rows;
        List.iter
          (fun r ->
            Alcotest.(check bool)
              "g_ok is ratio >= floor" (r.Hsb.g_ratio >= r.Hsb.g_floor) r.Hsb.g_ok)
          g.Hsb.g_rows;
        Alcotest.(check bool)
          "g_within: every enforced cell ok"
          (List.for_all (fun r -> (not r.Hsb.g_enforced) || r.Hsb.g_ok) g.Hsb.g_rows)
          g.Hsb.g_within
      | Error e -> Alcotest.failf "hiershard guard errored: %s" e);
  with_baseline (Json.Obj [ ("schema", Json.Str "hpfq-bench-hiershard-v1") ])
    (fun path ->
      match Hsb.guard ~baseline:path ~quick:true () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "schema-invalid baseline should be an error");
  match Hsb.guard ~baseline:"/nonexistent/BENCH_hiershard.json" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error"

(* -- perf-regression guard ------------------------------------------------ *)

let fake_report ?words pps =
  let words_field =
    match words with
    | Some w -> [ ("minor_words_per_pkt", Json.Num w) ]
    | None -> []
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-hotpath-v1");
      ( "headline",
        Json.Obj
          ([
             ("workload", Json.Str "one_level_wf2q_plus_n4096");
             ("pkts_per_sec", Json.Num pps);
           ]
          @ words_field) );
    ]

let test_headline_of_report () =
  (match Perf.headline_of_report (fake_report 123.0) with
  | Ok pps -> Alcotest.(check (float 1e-9)) "extracted" 123.0 pps
  | Error e -> Alcotest.failf "unexpected error: %s" e);
  (match Perf.headline_of_report (Json.Obj [ ("schema", Json.Str "x") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing headline should be an error");
  (match Perf.headline_of_report (fake_report (-1.0)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive headline should be an error");
  (match Perf.headline_words_of_report (fake_report ~words:12.5 1.0) with
  | Some w -> Alcotest.(check (float 1e-9)) "words extracted" 12.5 w
  | None -> Alcotest.fail "words key should be extracted");
  match Perf.headline_words_of_report (fake_report 1.0) with
  | None -> ()
  | Some _ -> Alcotest.fail "absent words key should be None"

(* The guard itself, at smoke scale: any real measurement beats a 1 pkt/sec
   baseline and loses to an absurd one; a missing baseline is a setup error,
   not a perf verdict. *)
let test_guard_verdicts () =
  let with_baseline ?words pps f =
    let path = Filename.temp_file "bench_guard" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Json.to_file path (fake_report ?words pps);
        f path)
  in
  let run_guard path =
    Perf.guard ~baseline:path ~tol:0.05 ~words_tol:0.1 ~n:64 ~iters:2_000
      ~runs:1 ()
  in
  with_baseline 1.0 (fun path ->
      match run_guard path with
      | Ok g ->
        Alcotest.(check bool) "beats trivial baseline" true g.Perf.within;
        Alcotest.(check bool)
          "no words key: ceiling vacuous" true g.Perf.words_within
      | Error e -> Alcotest.failf "guard errored: %s" e);
  with_baseline 1e15 (fun path ->
      match run_guard path with
      | Ok g ->
        Alcotest.(check bool) "loses to absurd baseline" false g.Perf.within
      | Error e -> Alcotest.failf "guard errored: %s" e);
  (* allocation tier: a generous committed ceiling passes, a sub-word one
     (no real cycle allocates under 1e-6 words/pkt more than 10% of that)
     must flip the overall verdict even though the pps gate passes *)
  with_baseline ~words:1e9 1.0 (fun path ->
      match run_guard path with
      | Ok g ->
        Alcotest.(check bool) "generous ceiling passes" true g.Perf.words_within;
        Alcotest.(check bool) "overall verdict passes" true g.Perf.within
      | Error e -> Alcotest.failf "guard errored: %s" e);
  with_baseline ~words:1e-6 1.0 (fun path ->
      match run_guard path with
      | Ok g ->
        Alcotest.(check bool) "tight ceiling trips" false g.Perf.words_within;
        Alcotest.(check bool)
          "words breach fails the guard" false g.Perf.within
      | Error e -> Alcotest.failf "guard errored: %s" e);
  match Perf.guard ~baseline:"/nonexistent/BENCH.json" ~tol:0.05 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error"

(* Tracing-disabled overhead, the deterministic half: installing and then
   removing an observer must leave the cycle's allocation behaviour exactly
   as if one had never been installed (Sched_intf contract: set_observer
   must not wrap the operation closures). Wall-clock comparisons live in
   `bench/main.exe -- trace-overhead` / `perf-guard`, where the environment
   is controlled; an alcotest run only checks the allocation-free claim. *)
let test_tracing_disabled_allocates_nothing () =
  let factory = Hpfq.Disciplines.wf2q_plus in
  let iters = 10_000 in
  let measure setup =
    let policy, cycle = Perf.loaded_policy_with factory 64 in
    setup policy;
    let _, minor = Perf.time_loop cycle ~iters in
    minor
  in
  let never = measure (fun _ -> ()) in
  let disabled =
    measure (fun p ->
        p.Sched.Sched_intf.set_observer (Some Sched.Sched_intf.null_observer);
        p.Sched.Sched_intf.set_observer None)
  in
  Alcotest.(check (float 0.0))
    "removed observer allocates exactly like never-installed" never disabled

let () =
  Alcotest.run "bench_smoke"
    [
      ( "perf",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "quick run emits valid report" `Quick
            test_quick_run_emits_valid_report;
        ] );
      ( "events",
        [
          Alcotest.test_case "quick run emits valid report" `Quick
            test_events_quick_run_emits_valid_report;
          Alcotest.test_case "guard verdicts" `Quick test_events_guard_verdicts;
        ] );
      ( "hier",
        [
          Alcotest.test_case "quick run emits valid report" `Quick
            test_hier_quick_run_emits_valid_report;
          Alcotest.test_case "guard verdicts" `Quick test_hier_guard_verdicts;
        ] );
      ( "replay",
        [
          Alcotest.test_case "quick run emits valid report" `Quick
            test_replay_quick_run_emits_valid_report;
          Alcotest.test_case "guard verdicts" `Quick test_replay_guard_verdicts;
        ] );
      ( "churn",
        [
          Alcotest.test_case "quick run emits valid report" `Quick
            test_churn_quick_run_emits_valid_report;
          Alcotest.test_case "guard verdicts" `Quick test_churn_guard_verdicts;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "quick run emits valid report" `Quick
            test_parallel_quick_run_emits_valid_report;
          Alcotest.test_case "guard verdicts" `Quick test_parallel_guard_verdicts;
        ] );
      ( "shard",
        [
          Alcotest.test_case "quick run emits valid report" `Quick
            test_shard_quick_run_emits_valid_report;
          Alcotest.test_case "guard verdicts" `Quick test_shard_guard_verdicts;
        ] );
      ( "hiershard",
        [
          Alcotest.test_case "quick run emits valid report" `Quick
            test_hiershard_quick_run_emits_valid_report;
          Alcotest.test_case "guard verdicts" `Quick test_hiershard_guard_verdicts;
        ] );
      ( "guard",
        [
          Alcotest.test_case "headline extraction" `Quick test_headline_of_report;
          Alcotest.test_case "guard verdicts" `Quick test_guard_verdicts;
          Alcotest.test_case "tracing disabled allocates nothing" `Quick
            test_tracing_disabled_allocates_nothing;
        ] );
    ]
