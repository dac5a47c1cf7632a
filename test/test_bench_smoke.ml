(* Smoke tests for the bench harness, table-driven over the suite registry
   (lib/experiments/suites.ml): every suite's quick run must emit a report
   carrying its required paths and its full quick grid, every guard must
   pass a trivial baseline and fail an unreachable one, scaling probes
   must gate exactly the rows that fit the host, every committed
   baseline must carry what its guards read, and the bare WF2Q+ cycle
   must stay under its allocation ceiling. *)

module Json = Bench_kit.Json
module Perf = Bench_kit.Perf
module Suite = Bench_kit.Suite

let with_temp f =
  let path = Filename.temp_file "bench_smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* [json] with [path] set to [v], creating objects along the way *)
let rec set path v json =
  match path with
  | [] -> v
  | k :: rest ->
    let fields = match json with Json.Obj f -> f | _ -> [] in
    let child = Option.value (List.assoc_opt k fields) ~default:Json.Null in
    Json.Obj ((k, set rest v child) :: List.remove_assoc k fields)

(* -- per-suite tests, generated from the registry ------------------------ *)

(* The report a quick run wrote, re-read from disk. *)
let quick_report suite =
  lazy
    (with_temp (fun out ->
         ignore (Suite.run suite ~quick:true ~out);
         Json.of_file out))

(* every rate, wall clock and speedup anywhere in a report; the samples
   of a same-run pairs object count under the pairs' own key *)
let rec measured key json acc =
  match json with
  | Json.Obj fields ->
    List.fold_left
      (fun acc (k, v) -> measured (if k = "num" || k = "den" then key else k) v acc)
      acc fields
  | Json.Arr xs -> List.fold_left (fun acc v -> measured key v acc) acc xs
  | Json.Num x
    when List.exists
           (fun suffix -> String.ends_with ~suffix key)
           [ "_per_sec"; "wall_s"; "speedup" ] ->
    (key, x) :: acc
  | _ -> acc

let cores = max 1 (Domain.recommended_domain_count ())

let rows key report =
  match Option.bind (Json.member key report) Json.to_list with
  | Some rows -> rows
  | None -> Alcotest.failf "report has no %s array" key

let field conv k row =
  match Option.bind (Json.member k row) conv with
  | Some v -> v
  | None -> Alcotest.failf "row field %s missing or mistyped" k

let int_ = field (fun j -> Option.map int_of_float (Json.to_float j))
let num_ = field Json.to_float
let str_ = field (function Json.Str s -> Some s | _ -> None)
let distinct xs = List.length (List.sort_uniq compare xs)

(* rows whose [group] field equals each value share one [hash] *)
let one_hash_per ~group ~hash rows =
  List.iter
    (fun g ->
      let hashes = List.filter (fun r -> int_ group r = g) rows |> List.map (str_ hash) in
      Alcotest.(check int) (Printf.sprintf "%s=%d: one distinct %s" group g hash) 1
        (distinct hashes))
    (List.sort_uniq compare (List.map (int_ group) rows))

(* The quick grid of each suite, and the invariants its rows must show. *)
let check_grid name report =
  match name with
  | "events" ->
    let rows = rows "rows" report in
    (* 4 distributions x 1 size *)
    Alcotest.(check int) "row count" 4 (List.length rows);
    List.iter (fun r -> if int_ "fired" r <= 0 then Alcotest.fail "nothing fired") rows
  | "hier" ->
    (* one row per topology, both engines' allocation in each *)
    let rows = rows "rows" report in
    Alcotest.(check (list string))
      "one row per topology" [ "fig3"; "balanced_d2_f4" ]
      (List.map (str_ "topology") rows);
    List.iter
      (fun r ->
        List.iter
          (fun k -> if not (num_ k r > 0.0) then Alcotest.failf "%s not positive" k)
          [ "flat_minor_words_per_pkt"; "generic_minor_words_per_pkt" ])
      rows
  | "replay" ->
    let trace = rows "rows" report in
    (* trace rungs 2, 8, 64 and unbounded, each against burst 1 *)
    Alcotest.(check (list string))
      "one row per trace rung" [ "2"; "8"; "64"; "inf" ]
      (List.map (str_ "burst_label") trace);
    List.iter
      (fun r ->
        Alcotest.(check int) "trace fully drained" (int_ "arrivals" r) (int_ "departures" r))
      trace;
    Alcotest.(check int) "one distinct departure hash" 1
      (distinct (List.map (str_ "depart_hash") trace));
    Alcotest.(check (list int))
      "one row per server rung" [ 8; 64 ]
      (List.map (int_ "burst_max") (rows "server_rows" report))
  | "churn" ->
    let rows = rows "rows" report in
    (* 1 session count x 2 engines *)
    Alcotest.(check int) "row count" 2 (List.length rows);
    List.iter
      (fun r ->
        Alcotest.(check int) "live sessions conserved" (int_ "sessions" r) (int_ "live_after" r))
      rows
  | "parallel" ->
    Alcotest.(check (list int))
      "one row per ladder rung" Experiments.Parallel_bench.jobs_ladder
      (List.map (int_ "jobs") (rows "rows" report))
  | "shard" ->
    let rows = rows "rows" report in
    (* 1 link count x the jobs ladder *)
    Alcotest.(check int) "one row per (links, jobs) cell"
      (List.length Experiments.Parallel_bench.jobs_ladder)
      (List.length rows);
    one_hash_per ~group:"links" ~hash:"device_hash" rows
  | name -> Alcotest.failf "suite %s has no grid check here" name

(* Every table of a report (each top-level array of objects) is rows,
   and each row carries the same-run pairs it was measured as. *)
let check_row_pairs what report =
  let tables =
    match report with
    | Json.Obj fields ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Arr (Json.Obj _ :: _ as rows) -> Some (k, rows)
          | _ -> None)
        fields
    | _ -> []
  in
  Alcotest.(check bool) (what ^ " has rows") true (tables <> []);
  List.iter
    (fun (table, rows) ->
      List.iteri
        (fun i row ->
          let pairs =
            match row with
            | Json.Obj fields ->
              List.exists (fun (_, v) -> Result.is_ok (Suite.same_run v)) fields
            | _ -> false
          in
          if not pairs then Alcotest.failf "%s: %s[%d] carries no same-run pairs" what table i)
        rows)
    tables

let test_quick_run suite report () =
  let report = Lazy.force report in
  Alcotest.(check (list string)) "required paths present" [] (Suite.missing suite report);
  (match Suite.find [ "provenance"; "rev" ] report with
  | Some (Json.Str _) -> ()
  | _ -> Alcotest.fail "report has no provenance.rev");
  let measured = measured "" report [] in
  Alcotest.(check bool) "reports measurements" true (measured <> []);
  List.iter
    (fun (k, x) -> if not (x > 0.0) then Alcotest.failf "%s = %g is not positive" k x)
    measured;
  check_row_pairs suite.Suite.name report;
  check_grid suite.Suite.name report

(* Each guard made trivially true, or impossible, by a baseline value or a
   bound no measurement can miss (or reach). Hashes keep the quick
   report's value, which the quick probe must reproduce exactly. *)
let trivial guard baseline =
  match guard with
  | Suite.Ceiling { path } -> (guard, set path (Json.Num 1e9) baseline)
  | Floor r -> (Floor { r with floor = Suite.both neg_infinity }, baseline)
  | Ratio r -> (Ratio { r with floor = Suite.both neg_infinity }, baseline)
  | Scaling _ -> (Scaling { slack = Suite.both 1.0 }, baseline)
  | Hash _ -> (guard, baseline)

let unreachable guard baseline =
  match guard with
  | Suite.Ceiling { path } -> (guard, set path (Json.Num 1e-6) baseline)
  | Floor r -> (Floor { r with floor = Suite.both infinity }, baseline)
  | Ratio r -> (Ratio { r with floor = Suite.both infinity }, baseline)
  | Scaling _ -> (Scaling { slack = Suite.both neg_infinity }, baseline)
  | Hash { baseline = path; _ } -> (guard, set path (Json.Str "ffffffffffffffff") baseline)

(* A scaling probe measures only the rows it gates: from 2 jobs up to
   the host's cores.
   Its verdict, in either profile, is "every row's median pair ratio
   reaches its floor", whatever this host measures. *)
let check_scaling_rows fresh slack =
  let gated = rows "rows" fresh in
  Alcotest.(check bool) "probe has rows" true (gated <> []);
  let label_int key r =
    List.find_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] when k = key -> int_of_string_opt v
        | _ -> None)
      (String.split_on_char ' ' (str_ "label" r))
  in
  Alcotest.(check (list int))
    "rows are the gated rungs"
    (List.filter_map (fun r -> label_int "jobs" r) gated)
    (List.concat_map
       (fun _ -> Experiments.Parallel_bench.gated_rungs ~cores)
       (List.sort_uniq compare (List.map (label_int "links") gated)));
  let median_ratio r =
    let pairs = field Option.some "pairs" r in
    let samples k = List.map (fun x -> Option.get (Json.to_float x)) (rows k pairs) in
    Suite.median (List.map2 ( /. ) (samples "num") (samples "den"))
  in
  List.iter
    (fun p ->
      let slack = match p with Suite.Local -> slack.Suite.local | Ci -> slack.ci in
      let expected =
        List.for_all (fun r -> median_ratio r >= num_ "expected" r *. (1.0 -. slack)) gated
      in
      let v =
        Suite.judge p ~baseline:(Json.Obj []) ~fresh (Scaling { slack = Suite.both slack })
      in
      Alcotest.(check bool) "verdict: every row ok" expected v.ok)
    [ Suite.Local; Ci ]

let test_guard_verdicts suite report () =
  let report = Lazy.force report in
  let fresh = suite.Suite.probe ~quick:true in
  (* every guard trivial except [breach], which is made unreachable *)
  let setup ?breach () =
    List.fold_left
      (fun (guards, baseline) (i, g) ->
        let g, baseline = (if Some i = breach then unreachable else trivial) g baseline in
        (guards @ [ g ], baseline))
      ([], report)
      (List.mapi (fun i g -> (i, g)) suite.guards)
  in
  let guards, baseline = setup () in
  Alcotest.(check (list string))
    "a quick report is a complete baseline" []
    (Suite.missing ~baseline:true suite baseline);
  List.iter
    (fun p ->
      List.iter
        (fun g ->
          let v = Suite.judge p ~baseline ~fresh g in
          if not v.ok then Alcotest.failf "trivial guard failed: %s" v.text)
        guards)
    [ Suite.Local; Ci ];
  List.iteri
    (fun i _ ->
      let guards, baseline = setup ~breach:i () in
      let v = Suite.judge Local ~baseline ~fresh (List.nth guards i) in
      if v.ok then Alcotest.failf "unreachable guard passed: %s" v.text)
    suite.guards;
  List.iter
    (function
      | Suite.Scaling { slack } -> check_scaling_rows fresh slack
      | _ -> ())
    suite.guards;
  (match Suite.guard suite ~baseline:"/nonexistent/BENCH.json" Local with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing baseline should be an error");
  with_temp (fun path ->
      Json.to_file path (Json.Obj [ ("schema", Json.Str "x") ]);
      match Suite.guard suite ~baseline:path Local with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "schema-invalid baseline should be an error")

(* -- registry-wide tests ------------------------------------------------- *)

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

(* Paths read objects by key and arrays through their first element; an
   absent or null value is missing. *)
let test_headline_extraction () =
  let report =
    Json.Obj
      [
        ("headline", Json.Obj [ ("pkts_per_sec", Json.Num 123.0); ("gone", Json.Null) ]);
        ("rows", Json.Arr [ Json.Obj [ ("n", Json.Num 16.0) ]; Json.Obj [] ]);
        ("empty", Json.Arr []);
      ]
  in
  Alcotest.(check bool) "headline value" true
    (Suite.find [ "headline"; "pkts_per_sec" ] report = Some (Json.Num 123.0));
  Alcotest.(check bool) "first row" true
    (Suite.find [ "rows"; "n" ] report = Some (Json.Num 16.0));
  List.iter
    (fun path ->
      Alcotest.(check bool)
        (Suite.path_name path ^ " missing")
        true
        (Suite.find path report = None))
    [ [ "headline"; "gone" ]; [ "headline"; "nope" ]; [ "empty"; "n" ]; [ "schema" ] ]

(* Each guard kind on synthetic numbers, at the edges a real measurement
   rarely reaches. *)
let test_judge_edges () =
  let judge ?(baseline = Json.Obj []) fresh g = (Suite.judge Local ~baseline ~fresh g).ok in
  let nums xs = Json.Arr (List.map (fun x -> Json.Num x) xs) in
  let row ratios =
    Json.Obj
      [
        ("label", Json.Str "r");
        ( "pairs",
          Json.Obj [ ("num", nums ratios); ("den", nums (List.map (fun _ -> 1.0) ratios)) ] );
        ("expected", Json.Num 1.0);
      ]
  in
  let scaling rs =
    judge (Json.Obj [ ("rows", Json.Arr rs) ]) (Scaling { slack = Suite.both 0.25 })
  in
  Alcotest.(check bool) "median over its floor passes despite one bad pair" true
    (scaling [ row [ 0.8; 0.1; 0.9 ]; row [ 5.0 ] ]);
  Alcotest.(check bool) "a row whose median is under its floor fails" false
    (scaling [ row [ 0.7; 0.7; 5.0 ]; row [ 5.0 ] ]);
  Alcotest.(check bool) "a row without pairs fails" false
    (scaling [ Json.Obj [ ("label", Json.Str "r"); ("expected", Json.Num 0.0) ] ]);
  Alcotest.(check bool) "no rows fails" false (scaling []);
  let ab fields = Json.Obj [ ("ab", Json.Obj fields) ] in
  let ratio ?(floor = 1.5) fresh =
    judge fresh (Ratio { path = [ "ab" ]; floor = Suite.both floor })
  in
  Alcotest.(check bool) "median of the pair ratios judged" true
    (ratio (ab [ ("num", nums [ 1.0; 4.0; 2.0 ]); ("den", nums [ 1.0; 2.0; 1.0 ]) ]));
  Alcotest.(check bool) "median below the floor fails" false
    (ratio ~floor:2.5 (ab [ ("num", nums [ 1.0; 6.0; 2.0 ]); ("den", nums [ 1.0; 2.0; 1.0 ]) ]));
  (* a same-run ratio fails closed: no denominator is no verdict *)
  Alcotest.(check bool) "zero denominator fails" false
    (ratio ~floor:neg_infinity (ab [ ("num", nums [ 2.0; 2.0 ]); ("den", nums [ 1.0; 0.0 ]) ]));
  Alcotest.(check bool) "missing denominator fails" false
    (ratio ~floor:neg_infinity (ab [ ("num", nums [ 2.0; 2.0 ]) ]));
  Alcotest.(check bool) "unmatched samples fail" false
    (ratio ~floor:neg_infinity (ab [ ("num", nums [ 2.0; 2.0 ]); ("den", nums [ 1.0 ]) ]));
  Alcotest.(check bool) "no samples fail" false
    (ratio ~floor:neg_infinity (ab [ ("num", nums []); ("den", nums []) ]));
  Alcotest.(check bool) "missing pairs object fails" false
    (ratio ~floor:neg_infinity (Json.Obj []));
  let headline v = Json.Obj [ ("headline", Json.Obj [ ("x", Json.Num v) ]) ] in
  Alcotest.(check bool) "missing fresh value fails" false
    (judge ~baseline:(headline 1.0) (Json.Obj []) (Ceiling { path = [ "headline"; "x" ] }))

(* [pairs] runs the two sides back to back, swapping their order every
   pair, and keeps each pair's samples together *)
let test_pairs_alternate () =
  let log = ref [] in
  let side name v () =
    log := name :: !log;
    v
  in
  let json = Suite.pairs ~num:(side "num" 3.0) ~den:(side "den" 2.0) () in
  Alcotest.(check (list string))
    "call order"
    [ "den"; "num"; "num"; "den"; "den"; "num"; "num"; "den"; "den"; "num" ]
    (List.rev !log);
  let v =
    Suite.judge Local ~baseline:(Json.Obj []) ~fresh:(Json.Obj [ ("ab", json) ])
      (Ratio { path = [ "ab" ]; floor = Suite.both 1.5 })
  in
  Alcotest.(check bool) "3/2 reaches a 1.5 floor" true v.ok;
  Alcotest.(check (float 0.0)) "median of an even count" 2.5 (Suite.median [ 4.0; 1.0; 3.0; 2.0 ])

(* Every bound, in both profiles. Changing one is a decision to make
   here, in the open. *)
let test_bounds_pinned () =
  let describe = function
    | Suite.Floor { path; floor } ->
      Printf.sprintf "floor %s %g/%g" (Suite.path_name path) floor.local floor.ci
    | Ratio { path; floor } ->
      Printf.sprintf "ratio %s %g/%g" (Suite.path_name path) floor.local floor.ci
    | Ceiling { path } ->
      Printf.sprintf "ceiling %s +%g" (Suite.path_name path) Suite.words_tol
    | Scaling { slack } -> Printf.sprintf "scaling %g/%g" slack.local slack.ci
    | Hash { fresh; baseline } ->
      Printf.sprintf "hash %s = %s" (Suite.path_name fresh) (Suite.path_name baseline)
  in
  Alcotest.(check (list (pair string (list string))))
    "bounds (local/ci)"
    [
      ("events", [ "ratio calendar_over_heap 1.55/1" ]);
      ( "hier",
        [
          "ratio flat_over_generic 1.7/1.2";
          "ceiling headline.flat_minor_words_per_pkt +0.1";
        ] );
      ( "replay",
        [
          "hash headline.depart_hash = headline.depart_hash";
          "hash headline.per_packet_depart_hash = headline.depart_hash";
          "ratio server_batched_over_per_packet 1.4/1.2";
          "ceiling headline.batched_minor_words_per_pkt +0.1";
        ] );
      ( "churn",
        [
          "ratio churn_over_heap 0.6/0.3";
          "floor headline.churn_events_per_sec 100000/100000";
        ] );
      ("parallel", [ "scaling 0.25/0.6" ]);
      ("shard", [ "scaling 0.25/0.6" ]);
    ]
    (List.map
       (fun (s : Suite.t) -> (s.name, List.map describe s.guards))
       Experiments.Suites.all);
  let ci = Sys.getenv_opt "CI" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CI" (Option.value ci ~default:""))
    (fun () ->
      Unix.putenv "CI" "true";
      Alcotest.(check string) "CI=true selects ci" "ci"
        (Suite.profile_name (Suite.profile ()));
      Unix.putenv "CI" "";
      Alcotest.(check string) "otherwise local" "local"
        (Suite.profile_name (Suite.profile ())))

(* The committed baselines (copied beside the test by dune) carry every
   path their guards read; stripping an allocation ceiling's key must be
   a named error, never a vacuous pass. *)
let test_committed_baselines_fail_closed () =
  List.iter
    (fun (s : Suite.t) ->
      let committed = Filename.concat ".." s.out in
      (match Suite.load_baseline s committed with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "committed baseline: %s" e);
      List.iter
        (function
          | Suite.Ceiling { path = [ "headline"; key ] as path } ->
            let json = Json.of_file committed in
            let stripped =
              match Suite.find [ "headline" ] json with
              | Some (Json.Obj fields) ->
                set [ "headline" ] (Json.Obj (List.remove_assoc key fields)) json
              | _ -> Alcotest.failf "%s has no headline" committed
            in
            with_temp (fun copy ->
                Json.to_file copy stripped;
                match Suite.load_baseline s copy with
                | Error e ->
                  Alcotest.(check bool)
                    ("error names " ^ Suite.path_name path)
                    true
                    (String.ends_with ~suffix:(Suite.path_name path) e)
                | Ok _ ->
                  Alcotest.failf "%s without %s passed" s.out (Suite.path_name path))
          | _ -> ())
        s.guards)
    Experiments.Suites.all

(* A committed baseline records what its guard judges: every row is
   same-run pairs, never a single draw. *)
let test_committed_rows_are_pairs () =
  List.iter
    (fun (s : Suite.t) -> check_row_pairs s.out (Json.of_file (Filename.concat ".." s.out)))
    Experiments.Suites.all

(* Tracing-disabled overhead, the deterministic half: installing and then
   removing an observer must leave the cycle's allocation behaviour exactly
   as if one had never been installed (Sched_intf contract: set_observer
   must not wrap the operation closures). Wall-clock comparisons live in
   `bench/main.exe -- trace-overhead`, where the environment is
   controlled; an alcotest run only checks the allocation-free claim. *)
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

(* The bare one-level WF2Q+ cycle at N = 4096 allocates 4.0 minor words
   per packet in release builds (the float [now] boxed across the policy
   record's closures; ROADMAP item 2). Allocation is deterministic, so one
   run holds it to that figure plus the ceiling band. Dev builds pass
   -opaque, which defeats cross-module inlining (~19.5 words), so the
   ceiling binds only in the release profile. *)
let bare_cycle_words_ceiling = 4.0 *. (1.0 +. Suite.words_tol)

let test_bare_cycle_words () =
  let iters = 400_000 in
  let _, cycle = Perf.loaded_policy_with Hpfq.Disciplines.wf2q_plus 4096 in
  let _, minor = Perf.time_loop cycle ~iters in
  let words = minor /. float_of_int iters in
  if Bench_kit.Build_info.profile = "release" && words > bare_cycle_words_ceiling then
    Alcotest.failf "bare WF2Q+ cycle allocates %.3f words/pkt, ceiling %.2f" words
      bare_cycle_words_ceiling

(* The fixed-point WF2Q+ cycle (ticks filed in [Indexed_heap4] by their
   bit pattern, [Sched.Fixed.prio]) at N = 4096 allocates 6.0 minor words
   per packet in release builds: the boxed [now] as above, plus the
   [Some session] of each select. A tick-to-priority conversion that is
   not inlined boxes its float and reads 10.0. Release only, as above. *)
let fixed_cycle_words_ceiling = 6.0 *. (1.0 +. Suite.words_tol)

let test_fixed_cycle_words () =
  let iters = 400_000 in
  let _, cycle = Perf.loaded_policy_with Hpfq.Disciplines.wf2q_plus_fixed 4096 in
  let _, minor = Perf.time_loop cycle ~iters in
  let words = minor /. float_of_int iters in
  if Bench_kit.Build_info.profile = "release" && words > fixed_cycle_words_ceiling then
    Alcotest.failf "fixed-point WF2Q+ cycle allocates %.3f words/pkt, ceiling %.2f" words
      fixed_cycle_words_ceiling

(* Under those 4.0 words, the WF2Q+ kernel itself allocates nothing: a
   one-node kernel of 4096 heap-filed slots with 16 weight classes, driven
   by [select] + [requeue] directly, reads 0 minor words over its loop in
   release builds, where the kernel's float primitives inline into it.
   [Gc.minor_words] counts every word ([Gc.quick_stat]'s count moves in
   whole minor heaps). Release only, as above. *)
let kernel_cycle_words ~n ~iters =
  let module K = Hpfq.Wf2q_kernel in
  let k = K.create ~rate:[| 1.0 |] ~slots:[| 0 |] in
  K.grow k n;
  for s = 0 to n - 1 do
    K.reset_slot k 0 s ~rate:(float_of_int (1 + (s land 15)) /. float_of_int (9 * n));
    K.backlog k 0 s ~now:0.0 ~head_bits:1.0
  done;
  (* one loop with no closure, so [now] and [m0] stay unboxed locals; the
     first [n] cycles warm up *)
  let now = ref 0.0 and m0 = ref 0.0 in
  for i = 1 to n + iters do
    if i = n + 1 then m0 := Gc.minor_words ();
    let s = K.select k 0 ~now:!now in
    now := !now +. 1.0;
    K.requeue k 0 s ~now:!now ~head_bits:1.0
  done;
  Gc.minor_words () -. !m0

let test_kernel_cycle_words () =
  let words = kernel_cycle_words ~n:4096 ~iters:200_000 in
  if Bench_kit.Build_info.profile = "release" && words > 0.0 then
    Alcotest.failf "one-node WF2Q+ kernel cycle allocates %.0f words over 200,000 cycles"
      words

(* The kernel's heap work alone, as a hold on [Indexed_heap4]: [n] keys,
   each step takes the minimum out and puts its key back a pseudo-random
   increment later, by one [replace_min] (the kernel's swap) or by
   [drop_min] + [add]. At 4,096 keys every full fan's child pick is the
   tournament; at 20,000, over four times its bound of 4,096, the deeper
   fans take the loop. Both read 0 minor words in release builds. *)
let heap_hold_words ~n ~iters ~replace =
  let module H = Prioq.Indexed_heap4 in
  let h = H.create n in
  for k = 0 to n - 1 do
    H.add h ~key:k ~prio:(float_of_int ((k * 7919) mod n))
  done;
  let x = ref 1 in
  let m0 = ref (Gc.minor_words ()) in
  for _ = 1 to iters do
    x := ((!x * 1103515245) + 12345) land 0x3fff_ffff;
    let k = H.min_key_unsafe h and p = H.min_prio_unsafe h +. float_of_int (!x lsr 16) in
    if replace then H.replace_min h ~key:k ~prio:p
    else begin
      H.drop_min h;
      H.add h ~key:k ~prio:p
    end
  done;
  Gc.minor_words () -. !m0

let test_heap_hold_words () =
  List.iter
    (fun (n, replace) ->
      let words = heap_hold_words ~n ~iters:200_000 ~replace in
      if Bench_kit.Build_info.profile = "release" && words > 0.0 then
        Alcotest.failf "Indexed_heap4 %s hold at %d keys allocates %.0f words over 200,000 steps"
          (if replace then "replace_min" else "drop_min + add")
          n words)
    [ (4096, true); (4096, false); (20_000, true); (20_000, false) ]

(* The same loop through the Server and the event loop
   ([Perf.server_throughput], N = 4096, burst cap 64) allocates 8.0 minor
   words per packet in release builds; the ceiling keeps the data-plane
   layout from adding any. Release only, as above. *)
let server_words_ceiling = 8.0 *. (1.0 +. Suite.words_tol)

let test_server_words () =
  let _, words = Perf.server_throughput ~n:4096 ~burst_max:64 ~target_pkts:200_000 () in
  if Bench_kit.Build_info.profile = "release" && words > server_words_ceiling then
    Alcotest.failf "Server path allocates %.3f words/pkt, ceiling %.2f" words
      server_words_ceiling

let () =
  let suite_tests (s : Suite.t) =
    let report = quick_report s in
    ( s.name,
      [
        Alcotest.test_case "quick run emits valid report" `Quick (test_quick_run s report);
        Alcotest.test_case "guard verdicts" `Quick (test_guard_verdicts s report);
      ] )
  in
  Alcotest.run "bench_smoke"
    (List.map suite_tests Experiments.Suites.all
    @ [
        ( "guard",
          [
            Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
            Alcotest.test_case "headline extraction" `Quick test_headline_extraction;
            Alcotest.test_case "judge edge cases" `Quick test_judge_edges;
            Alcotest.test_case "same-run pairs alternate" `Quick test_pairs_alternate;
            Alcotest.test_case "bounds pinned in both profiles" `Quick test_bounds_pinned;
            Alcotest.test_case "committed baselines fail closed" `Quick
              test_committed_baselines_fail_closed;
            Alcotest.test_case "committed rows are same-run pairs" `Quick
              test_committed_rows_are_pairs;
            Alcotest.test_case "tracing disabled allocates nothing" `Quick
              test_tracing_disabled_allocates_nothing;
            Alcotest.test_case "bare cycle words/pkt ceiling" `Quick test_bare_cycle_words;
            Alcotest.test_case "fixed cycle words/pkt ceiling" `Quick test_fixed_cycle_words;
            Alcotest.test_case "kernel cycle allocates nothing" `Quick
              test_kernel_cycle_words;
            Alcotest.test_case "heap holds allocate nothing" `Quick test_heap_hold_words;
            Alcotest.test_case "server words/pkt ceiling" `Quick test_server_words;
          ] );
      ])
