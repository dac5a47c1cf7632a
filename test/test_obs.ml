(* Tests for the observability layer (lib/obs): the golden Fig. 2 trace,
   the disabled-observer guarantees (records nothing, perturbs nothing),
   ring-buffer overflow semantics, live metrics against the server's own
   ground truth, and the JSONL/CSV/report exporters. *)

module Event = Obs.Event
module Recorder = Obs.Recorder
module Sink = Obs.Sink
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module F2 = Experiments.Fig2_walkthrough
module Json = Bench_kit.Json

let feq = Alcotest.(float 1e-9)

(* -- golden Fig. 2 trace -------------------------------------------------- *)

(* WF2Q+ on the paper's Fig. 2 scenario: session 1 (phi = 0.5) finishes its
   11 packets at the odd instants 1,3,...,21, perfectly interleaved with the
   ten phi = 0.05 sessions — the SEFF service order of the figure. The trace
   must reproduce that schedule event by event. *)
let golden_completions =
  (* (session, seq, finish) in completion order *)
  [
    (0, 1, 1.0); (1, 1, 2.0); (0, 2, 3.0); (2, 1, 4.0); (0, 3, 5.0);
    (3, 1, 6.0); (0, 4, 7.0); (4, 1, 8.0); (0, 5, 9.0); (5, 1, 10.0);
    (0, 6, 11.0); (6, 1, 12.0); (0, 7, 13.0); (7, 1, 14.0); (0, 8, 15.0);
    (8, 1, 16.0); (0, 9, 17.0); (9, 1, 18.0); (0, 10, 19.0); (10, 1, 20.0);
    (0, 11, 21.0);
  ]

let run_golden = lazy (F2.run_traced Hpfq.Disciplines.wf2q_plus)

let count_kind events k =
  List.length (List.filter (fun e -> e.Event.kind = k) events)

let test_fig2_golden_completions () =
  let completions, _ = Lazy.force run_golden in
  Alcotest.(check int) "21 packets" 21 (List.length completions);
  List.iter2
    (fun (s, q, f) c ->
      Alcotest.(check int) "session" s c.F2.session;
      Alcotest.(check int) "seq" q c.F2.seq;
      Alcotest.check feq "finish" f c.F2.finish)
    golden_completions completions;
  Alcotest.(check (list (float 1e-9)))
    "session-1 finishes are the odd instants"
    [ 1.; 3.; 5.; 7.; 9.; 11.; 13.; 15.; 17.; 19.; 21. ]
    (F2.session1_finishes completions)

let test_fig2_golden_events () =
  let _, trace = Lazy.force run_golden in
  let events = Trace.events trace in
  Alcotest.(check int) "total events" 116 (List.length events);
  List.iter
    (fun (k, n) -> Alcotest.(check int) (Event.kind_to_string k) n (count_kind events k))
    [
      (Event.Arrive, 21); (Event.Backlog, 11); (Event.Requeue, 10);
      (Event.Idle, 11); (Event.Select, 21); (Event.Transmit_start, 21);
      (Event.Depart, 21); (Event.Drop, 0);
    ];
  (* the select sequence IS the Fig. 2 service order, and each select's
     vtime is the post-dated V = k+1 after the k-th unit packet *)
  let selects = List.filter (fun e -> e.Event.kind = Event.Select) events in
  List.iteri
    (fun k e ->
      let (golden_session, _, _) = List.nth golden_completions k in
      Alcotest.(check int) "select session" golden_session e.Event.session;
      Alcotest.check feq "select time" (float_of_int k) e.Event.time;
      Alcotest.check feq "select vtime" (float_of_int (k + 1)) e.Event.vtime)
    selects;
  (* link events: node encodes the session "leaf" (1 + session), session is
     -1 and vtime is nan — a link has no virtual clock *)
  let departs = List.filter (fun e -> e.Event.kind = Event.Depart) events in
  List.iteri
    (fun k e ->
      let (golden_session, _, golden_finish) = List.nth golden_completions k in
      Alcotest.(check int) "depart leaf node" (1 + golden_session) e.Event.node;
      Alcotest.(check int) "depart session" (-1) e.Event.session;
      Alcotest.check feq "depart time" golden_finish e.Event.time;
      Alcotest.(check bool) "depart vtime is nan" true (Float.is_nan e.Event.vtime))
    departs

let test_fig2_metrics_and_names () =
  let _, trace = Lazy.force run_golden in
  let m = Trace.metrics trace in
  let server = Metrics.node m 0 in
  Alcotest.(check int) "server arrivals" 21 server.Metrics.arrivals;
  Alcotest.(check int) "server selects" 21 server.Metrics.selects;
  Alcotest.check feq "server W(0,t)" 21.0 server.Metrics.served_bits;
  Alcotest.(check int) "server busy periods" 1 server.Metrics.busy_periods;
  Alcotest.check feq "vtime watermark low" 0.0 server.Metrics.vtime_min;
  Alcotest.check feq "vtime watermark high" 21.0 server.Metrics.vtime_max;
  (* per-session leaves: s1 moved 11 bits, everyone else 1 *)
  Alcotest.check feq "s1 served" 11.0 (Metrics.node m 1).Metrics.served_bits;
  for s = 2 to 11 do
    Alcotest.check feq "phi=0.05 session served" 1.0
      (Metrics.node m s).Metrics.served_bits
  done;
  let names = Trace.names trace in
  Alcotest.(check string) "server label" "fig2-link" (names.Sink.node_label 0);
  Alcotest.(check string) "leaf label" "s1" (names.Sink.node_label 1);
  Alcotest.(check string) "session label via server node" "s11"
    (names.Sink.session_label ~node:0 ~session:10);
  let scheduled, fired, cancelled = Trace.sim_counters trace in
  Alcotest.(check int) "sim scheduled" 22 scheduled;
  Alcotest.(check int) "sim fired" 22 fired;
  Alcotest.(check int) "sim cancelled" 0 cancelled

let test_sim_report () =
  let _, trace = Lazy.force run_golden in
  let r = Trace.sim_report trace in
  Alcotest.(check (list string))
    "columns" [ "metric"; "value" ]
    (Stats.Report.columns r);
  let assoc =
    List.filter_map
      (function [ k; v ] -> Some (k, v) | _ -> None)
      (Stats.Report.rows r)
  in
  Alcotest.(check (option string)) "scheduled" (Some "22")
    (List.assoc_opt "scheduled" assoc);
  Alcotest.(check (option string)) "fired" (Some "22")
    (List.assoc_opt "fired" assoc);
  Alcotest.(check (option string)) "run drained" (Some "0")
    (List.assoc_opt "pending" assoc);
  Alcotest.(check (option string)) "no garbage retained" (Some "0")
    (List.assoc_opt "cancelled_in_set" assoc);
  Alcotest.(check bool) "capacity rows present" true
    (List.mem_assoc "set_capacity" assoc && List.mem_assoc "pool_capacity" assoc)

(* -- disabled observers --------------------------------------------------- *)

(* Installing an observer must not perturb scheduling: the traced run's
   completions equal the untraced baseline's (golden list above, which
   matches EXPERIMENTS.md's untraced Fig. 2 anchors). Removing one must
   restore the exact untraced hot path: a policy that had an observer
   installed and removed makes the same decisions as one that never did. *)
let drive_selects policy =
  let open Sched.Sched_intf in
  List.iter (fun rate -> ignore (policy.session_of_handle (policy.open_session ~rate))) [ 0.5; 0.25; 0.25 ];
  for s = 0 to 2 do
    policy.arrive ~now:0.0 ~session:s ~size_bits:1.0;
    policy.backlog ~now:0.0 ~session:s ~head_bits:1.0
  done;
  let order = ref [] in
  let now = ref 0.0 in
  for _ = 1 to 12 do
    (match policy.select ~now:!now with
    | None -> ()
    | Some s ->
      order := s :: !order;
      now := !now +. 1.0;
      policy.arrive ~now:!now ~session:s ~size_bits:1.0;
      policy.requeue ~now:!now ~session:s ~head_bits:1.0)
  done;
  List.rev !order

let test_removed_observer_restores_schedule () =
  let open Sched.Sched_intf in
  let baseline = drive_selects (Hpfq.Disciplines.wf2q_plus.make ~rate:1.0) in
  let policy = Hpfq.Disciplines.wf2q_plus.make ~rate:1.0 in
  policy.set_observer (Some null_observer);
  policy.set_observer None;
  Alcotest.(check (list int))
    "installed-then-removed observer leaves the schedule untouched" baseline
    (drive_selects policy)

let test_detached_trace_records_no_scheduler_events () =
  let sim = Engine.Simulator.create () in
  let server =
    Hpfq.Server.create ~sim ~rate:1.0
      ~policy:(Hpfq.Disciplines.wf2q_plus.make ~rate:1.0)
      ~on_depart:(fun _ _ -> ())
      ()
  in
  for _ = 1 to 3 do
    ignore (Hpfq.Server.open_session server ~rate:0.25 ())
  done;
  let trace = Trace.attach_server server in
  Trace.detach trace;
  ignore
    (Engine.Simulator.schedule sim ~at:0.0 (fun () ->
         for s = 0 to 2 do
           ignore (Hpfq.Server.inject server ~session:s ~size_bits:1.0)
         done));
  Engine.Simulator.run sim;
  (* scheduler observers are gone; only composed link hooks may still fire *)
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "event %s is link-level" (Event.kind_to_string e.Event.kind))
        true
        (Event.is_link_level e.Event.kind))
    (Trace.events trace);
  Alcotest.(check int) "no selects counted" 0 (Metrics.node (Trace.metrics trace) 0).Metrics.selects

(* -- ring buffer overflow semantics --------------------------------------- *)

let fill recorder n =
  for i = 0 to n - 1 do
    Recorder.record recorder ~kind:Event.Arrive ~node:0 ~session:i
      ~time:(float_of_int i) ~vtime:0.0 ~bits:1.0
  done

let sessions recorder = List.map (fun e -> e.Event.session) (Recorder.to_list recorder)

let test_ring_drop_oldest () =
  let r = Recorder.create ~capacity:4 ~on_full:Recorder.Drop_oldest () in
  fill r 6;
  Alcotest.(check int) "length" 4 (Recorder.length r);
  Alcotest.(check int) "dropped" 2 (Recorder.dropped r);
  Alcotest.(check (list int)) "newest survive, oldest first" [ 2; 3; 4; 5 ] (sessions r);
  Alcotest.(check int) "get oldest" 2 (Recorder.get r 0).Event.session;
  Recorder.clear r;
  Alcotest.(check int) "cleared length" 0 (Recorder.length r);
  Alcotest.(check int) "cleared dropped" 0 (Recorder.dropped r)

let test_ring_drop_newest () =
  let r = Recorder.create ~capacity:4 ~on_full:Recorder.Drop_newest () in
  fill r 6;
  Alcotest.(check int) "length" 4 (Recorder.length r);
  Alcotest.(check int) "dropped" 2 (Recorder.dropped r);
  Alcotest.(check (list int)) "oldest survive" [ 0; 1; 2; 3 ] (sessions r)

let test_ring_grow () =
  let r = Recorder.create ~capacity:4 ~on_full:Recorder.Grow () in
  fill r 100;
  Alcotest.(check int) "length" 100 (Recorder.length r);
  Alcotest.(check int) "dropped" 0 (Recorder.dropped r);
  Alcotest.(check bool) "capacity grew" true (Recorder.capacity r >= 100);
  Alcotest.(check int) "order preserved across growth" 99 (Recorder.get r 99).Event.session;
  (match Recorder.get r 100 with
  | _ -> Alcotest.fail "get past the end should raise"
  | exception Invalid_argument _ -> ())

let test_memory_sink_and_drain () =
  let r = Recorder.create ~capacity:8 () in
  fill r 5;
  let sink, contents = Sink.memory () in
  Recorder.drain r sink;
  Alcotest.(check int) "drained everything" 5 (List.length (contents ()));
  Alcotest.(check int) "drain clears the ring" 0 (Recorder.length r);
  (* the null sink accepts anything *)
  fill r 3;
  Recorder.drain r Sink.null;
  Alcotest.(check int) "null drain also clears" 0 (Recorder.length r)

(* -- metrics vs the server's own ground truth ----------------------------- *)

(* Fig. 3 hierarchy under saturating load: every node's served_bits counter
   (credited along leaf-to-root paths at each depart) must equal the
   hierarchy's own W_n(0,t) accounting, node by node. *)
let test_hier_metrics_match_departed_bits () =
  let module H = Experiments.Paper_hierarchies in
  let sim = Engine.Simulator.create () in
  let h =
    Hpfq.Hier.create ~sim ~spec:H.fig3
      ~make_policy:(Hpfq.Hier.uniform Hpfq.Disciplines.wf2q_plus)
      ()
  in
  let trace = Trace.attach_engine (Hpfq.Hier_engine.Generic h) in
  List.iter
    (fun (_, leaf) ->
      ignore
        (Traffic.Source.greedy ~sim
           ~emit:(fun ~size_bits -> ignore (Hpfq.Hier.inject h ~leaf ~size_bits))
           ~packet_bits:H.fig3_packet_bits ~backlog_packets:8 ~stop_at:0.05 ()))
    (Hpfq.Hier.leaf_ids h);
  Engine.Simulator.run ~until:0.1 sim;
  let m = Trace.metrics trace in
  let total_served = ref 0.0 in
  for id = 0 to Hpfq.Hier.node_count h - 1 do
    let name = Hpfq.Hier.node_name h id in
    let node = Metrics.node m id in
    Alcotest.check (Alcotest.float 1e-6)
      (Printf.sprintf "W_n for %s" name)
      (Hpfq.Hier.departed_bits h ~node:name)
      node.Metrics.served_bits;
    if node.Metrics.served_bits > 0.0 then total_served := !total_served +. 1.0
  done;
  Alcotest.(check bool) "several nodes actually served traffic" true (!total_served > 3.0)

(* -- exporters ------------------------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let with_temp_file suffix f =
  let path = Filename.temp_file "test_obs" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_jsonl_parseback () =
  let _, trace = Lazy.force run_golden in
  with_temp_file ".jsonl" (fun path ->
      Trace.write_jsonl trace ~path;
      let lines = read_lines path in
      Alcotest.(check int) "one line per event" 116 (List.length lines);
      List.iter
        (fun line ->
          let j = Json.of_string line in
          let get k = match Json.member k j with
            | Some v -> v
            | None -> Alcotest.failf "record missing %S: %s" k line
          in
          let ev = match get "ev" with
            | Json.Str s -> s
            | _ -> Alcotest.failf "ev is not a string: %s" line
          in
          let kind = match Event.kind_of_string ev with
            | Some k -> k
            | None -> Alcotest.failf "unknown event kind %S" ev
          in
          (match Json.to_float (get "t") with
          | Some t -> Alcotest.(check bool) "time in range" true (t >= 0.0 && t <= 21.0)
          | None -> Alcotest.failf "t is not a number: %s" line);
          if Event.is_link_level kind then begin
            Alcotest.(check bool) "link session is null" true (get "session" = Json.Null);
            Alcotest.(check bool) "link v is null" true (get "v" = Json.Null)
          end
          else begin
            (match get "session" with
            | Json.Str _ -> ()
            | _ -> Alcotest.failf "scheduler session is not a label: %s" line);
            match Json.to_float (get "v") with
            | Some _ -> ()
            | None -> Alcotest.failf "scheduler v is not a number: %s" line
          end)
        lines;
      Alcotest.(check int) "write keeps the ring" 116
        (Recorder.length (Trace.recorder trace)))

let test_csv_and_reports () =
  let _, trace = Lazy.force run_golden in
  with_temp_file ".csv" (fun path ->
      Trace.write_csv trace ~path;
      match read_lines path with
      | header :: rows ->
        Alcotest.(check string) "csv header" (String.concat "," Sink.csv_header) header;
        Alcotest.(check int) "csv rows" 116 (List.length rows)
      | [] -> Alcotest.fail "empty csv");
  (* the same trace through the unified Stats.Report shape *)
  let ev_report = Trace.events_report trace in
  Alcotest.(check (list string)) "events report columns" Sink.csv_header
    (Stats.Report.columns ev_report);
  Alcotest.(check int) "events report rows" 116
    (List.length (Stats.Report.rows ev_report));
  let m_report = Trace.metrics_report trace in
  Alcotest.(check int) "one metrics row per node" 12
    (List.length (Stats.Report.rows m_report));
  with_temp_file ".csv" (fun path ->
      Stats.Report.to_csv m_report ~path;
      Alcotest.(check int) "report csv = header + rows" 13
        (List.length (read_lines path)))

let () =
  Alcotest.run "obs"
    [
      ( "fig2-golden",
        [
          Alcotest.test_case "completions" `Quick test_fig2_golden_completions;
          Alcotest.test_case "event stream" `Quick test_fig2_golden_events;
          Alcotest.test_case "metrics and names" `Quick test_fig2_metrics_and_names;
          Alcotest.test_case "sim report" `Quick test_sim_report;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "removed observer restores schedule" `Quick
            test_removed_observer_restores_schedule;
          Alcotest.test_case "detached trace records no scheduler events" `Quick
            test_detached_trace_records_no_scheduler_events;
        ] );
      ( "ring",
        [
          Alcotest.test_case "drop oldest" `Quick test_ring_drop_oldest;
          Alcotest.test_case "drop newest" `Quick test_ring_drop_newest;
          Alcotest.test_case "grow" `Quick test_ring_grow;
          Alcotest.test_case "memory sink and drain" `Quick test_memory_sink_and_drain;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "hier served bits match departed bits" `Quick
            test_hier_metrics_match_departed_bits;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl parse-back" `Quick test_jsonl_parseback;
          Alcotest.test_case "csv and reports" `Quick test_csv_and_reports;
        ] );
    ]
