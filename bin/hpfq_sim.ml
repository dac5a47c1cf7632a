(* hpfq-sim: command-line driver for the paper's experiments.

   Subcommands mirror the per-experiment index in DESIGN.md:
     fig2          service-order walkthrough (GPS / WFQ / WF2Q / WF2Q+ / SCFQ)
     trace         structured packet/virtual-time trace of a paper hierarchy
     delay         Figs. 4-7: RT-1 delay under each chosen H-PFQ discipline
     link-sharing  Figs. 8-9: TCP sessions vs ideal H-GPS
     wfi           T-WFI probe sweep over the number of sessions
     replay        trace replay (CSV/binary/synthetic) with burst-drained departures
     tree          print the paper hierarchies with shares
     custom        run a user tree file (hpfq syntax) saturated, vs H-GPS
   Each command can dump CSV series for external plotting. *)

open Cmdliner

(* Numeric options an experiment cannot run with are rejected while the
   command line is parsed, naming the option (exit 124), rather than
   escaping later as an uncaught exception or running on a NaN. *)
let checked base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let pos_int = checked Arg.int ~expected:"an integer >= 1" (fun n -> n >= 1)
let nonneg_int = checked Arg.int ~expected:"an integer >= 0" (fun n -> n >= 0)

let pos_float =
  checked Arg.float ~expected:"a finite number > 0" (fun x ->
      x > 0.0 && Float.is_finite x)

let discipline_conv =
  let parse s =
    match Hpfq.Disciplines.find s with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown discipline %S (try: %s)" s
              (String.concat ", "
                 (List.map
                    (fun f -> f.Sched.Sched_intf.kind)
                    Hpfq.Disciplines.all))))
  in
  let print fmt f = Format.pp_print_string fmt f.Sched.Sched_intf.kind in
  Arg.conv (parse, print)

let discipline_arg =
  Arg.(
    value
    & opt discipline_conv Hpfq.Disciplines.wf2q_plus
    & info [ "d"; "discipline" ] ~docv:"NAME" ~doc:"One-level discipline to build the hierarchy from.")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc:"Dump series to CSV.")

let hier_engine_conv =
  let parse s =
    match Hpfq.Hier_engine.choice_of_string s with
    | Ok c -> Ok c
    | Error e -> Error (`Msg e)
  in
  let print fmt c = Format.pp_print_string fmt (Hpfq.Hier_engine.choice_to_string c) in
  Arg.conv (parse, print)

let hier_engine_arg =
  Arg.(
    value
    & opt hier_engine_conv `Auto
    & info [ "hier-engine" ] ~docv:"generic|flat|auto"
        ~doc:
          "Hierarchy engine: $(b,generic) composes one-level policies per \
           node, $(b,flat) is the monomorphic flattened H-WF2Q+ fast path \
           (bit-identical schedules). $(b,auto) picks flat for WF2Q+ and \
           generic otherwise.")

let horizon_arg default =
  Arg.(value & opt pos_float default & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Simulated time.")

let seed_arg = Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

(* -- worker pool --------------------------------------------------------- *)

let jobs_arg =
  let max = Parallel.Pool.max_jobs in
  let jobs =
    checked Arg.int ~expected:(Printf.sprintf "an integer in 1..%d" max) (fun n ->
        n >= 1 && n <= max)
  in
  Arg.(
    value
    & opt (some jobs) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for sweep/grid work (default: $(b,HPFQ_JOBS), or \
           1). Results are bit-identical for any $(docv); commands with a \
           single simulation ignore it.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Log a line as sweep tasks complete (rate-limited, stderr).")

(* evaluated once per command invocation: installs the (off-by-default)
   progress reporter before any worker spawns, then builds the pool *)
let make_pool jobs progress =
  if progress then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Parallel.Pool.log_src (Some Logs.Info)
  end;
  match jobs with
  | Some jobs -> Parallel.Pool.create ~jobs ()
  | None -> Parallel.Pool.create ()

let pool_term = Term.(const make_pool $ jobs_arg $ progress_arg)

(* -- fig2 ---------------------------------------------------------------- *)

let fig2_cmd =
  let run () =
    let result = Experiments.Fig2_walkthrough.run () in
    Experiments.Fig2_walkthrough.render Format.std_formatter result
  in
  Cmd.v (Cmd.info "fig2" ~doc:"Service order walkthrough (paper Fig. 2).")
    Term.(const run $ const ())

(* -- trace --------------------------------------------------------------- *)

let trace_cmd =
  let run engine discipline horizon out format capacity metrics_out =
    let spec = Experiments.Paper_hierarchies.fig3 in
    let sim = Engine.Simulator.create () in
    let h = Hpfq.Hier_engine.create ~sim ~spec ~factory:discipline ~engine () in
    let trace = Obs.Trace.attach_engine ~capacity h in
    Obs.Trace.attach_sim trace sim;
    (* deterministic saturation: every leaf keeps a fixed backlog topped up
       on a fixed schedule, so the same command always emits the same trace *)
    let packet = 8.0 *. 1024.0 *. 8.0 in
    List.iter
      (fun (name, _) ->
        let leaf = Hpfq.Hier_engine.leaf_id h name in
        ignore
          (Traffic.Source.greedy ~sim
             ~emit:(fun ~size_bits ->
               ignore (Hpfq.Hier_engine.inject h ~leaf ~size_bits))
             ~packet_bits:packet ~backlog_packets:8 ~top_up_every:0.25
             ~stop_at:horizon ()))
      (Hpfq.Class_tree.leaves spec);
    Engine.Simulator.run ~until:horizon sim;
    (match format with
    | "jsonl" -> Obs.Trace.write_jsonl trace ~path:out
    | "csv" -> Obs.Trace.write_csv trace ~path:out
    | f -> invalid_arg (Printf.sprintf "unknown trace format %S (jsonl|csv)" f));
    let scheduled, fired, cancelled = Obs.Trace.sim_counters trace in
    Printf.printf "wrote %s: %d events retained, %d dropped by the ring\n" out
      (Obs.Recorder.length (Obs.Trace.recorder trace))
      (Obs.Recorder.dropped (Obs.Trace.recorder trace));
    Printf.printf "event loop: %d scheduled, %d fired, %d cancelled\n" scheduled fired
      cancelled;
    let st = Engine.Simulator.stats sim in
    Printf.printf
      "event set: pending=%d garbage=%d capacity=%d pool=%d compactions=%d \
       resizes=%d\n"
      st.Engine.Simulator.live st.Engine.Simulator.cancelled_in_set
      st.Engine.Simulator.set_capacity st.Engine.Simulator.pool_capacity
      st.Engine.Simulator.compactions st.Engine.Simulator.resizes;
    Option.iter
      (fun path ->
        Stats.Report.to_csv (Obs.Trace.metrics_report trace) ~path;
        Printf.printf "wrote %s\n" path)
      metrics_out
  in
  let out_arg =
    Arg.(
      value
      & opt string "trace.jsonl"
      & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Trace output file.")
  in
  let format_arg =
    Arg.(
      value
      & opt string "jsonl"
      & info [ "format" ] ~docv:"jsonl|csv" ~doc:"Trace output format.")
  in
  let capacity_arg =
    Arg.(
      value
      & opt pos_int 262144
      & info [ "capacity" ] ~docv:"N" ~doc:"Event ring capacity (oldest dropped beyond).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH" ~doc:"Also dump per-node metric counters as CSV.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the Fig. 3 hierarchy saturated and dump the structured \
          packet/virtual-time event trace.")
    Term.(
      const run $ hier_engine_arg $ discipline_arg
      $ horizon_arg 0.5 $ out_arg $ format_arg $ capacity_arg $ metrics_arg)

(* -- delay --------------------------------------------------------------- *)

let delay_cmd =
  let run engine pool disciplines scenario horizon seed replications csv =
    let results =
      if replications = 1 then
        (* the historical single-run path: same seed → same output as ever *)
        List.map
          (fun factory ->
            Experiments.Delay_experiment.run ~engine ~factory ~scenario ~horizon ~seed ())
          disciplines
      else
        Experiments.Delay_experiment.run_sweep ~pool ~engine ~factories:disciplines
          ~scenario ~horizon ~seed ~replications ()
    in
    List.iter
      (fun r -> print_endline (Experiments.Delay_experiment.summary_row r))
      results;
    Printf.printf "Cor.2 delay bound for RT-1 under H-WF2Q+: %.3f ms\n"
      (Experiments.Delay_experiment.rt1_delay_bound *. 1e3);
    Option.iter
      (fun path ->
        (* each discipline's first replication (results run
           replication-inner), its series named after it *)
        let series (r : Experiments.Delay_experiment.result) =
          [
            ( "delay:" ^ r.discipline,
              Stats.Delay_stats.series_max_over_windows r.delays ~window:0.05 );
            ("lag:" ^ r.discipline, Stats.Service_curve.lag_series r.lag);
          ]
        in
        Stats.Csv.write_named_series ~path
          ~series:
            (List.concat
               (List.filteri (fun i _ -> i mod replications = 0) (List.map series results)));
        Printf.printf "wrote %s\n" path)
      csv
  in
  let disciplines_arg =
    let nonempty =
      checked (Arg.list discipline_conv) ~expected:"one or more disciplines" (fun l ->
          l <> [])
    in
    Arg.(
      value
      & opt nonempty [ Hpfq.Disciplines.wf2q_plus ]
      & info [ "d"; "discipline" ] ~docv:"NAME,..."
          ~doc:"One-level disciplines to build the hierarchy from, run in turn.")
  in
  let scenario_arg =
    let scenarios =
      Experiments.Delay_experiment.
        [
          ("1", S1_constant_and_trains);
          ("2", S2_overloaded_poisson);
          ("3", S3_overload_and_trains);
        ]
    in
    Arg.(
      value
      & opt (enum scenarios) Experiments.Delay_experiment.S1_constant_and_trains
      & info [ "s"; "scenario" ] ~docv:"1|2|3" ~doc:"Traffic scenario.")
  in
  let replications_arg =
    Arg.(
      value & opt pos_int 1
      & info [ "replications" ] ~docv:"K"
          ~doc:
            "Replications with independent (seed-derived) arrival streams, \
             fanned out on the worker pool; the CSV dump uses the first.")
  in
  Cmd.v (Cmd.info "delay" ~doc:"RT-1 delay experiment (paper Figs. 4-7).")
    Term.(
      const run $ hier_engine_arg $ pool_term
      $ disciplines_arg $ scenario_arg $ horizon_arg 10.0 $ seed_arg
      $ replications_arg $ csv_arg)

(* -- link-sharing -------------------------------------------------------- *)

let link_sharing_cmd =
  let run engine pool discipline horizon csv =
    let result =
      Experiments.Link_sharing.run ~pool ~engine ~factory:discipline ~horizon ()
    in
    Experiments.Link_sharing.summary Format.std_formatter result;
    Option.iter
      (fun path ->
        let series =
          List.map (fun (l, s) -> ("measured:" ^ l, s)) result.Experiments.Link_sharing.measured
          @ List.map (fun (l, s) -> ("ideal:" ^ l, s)) result.Experiments.Link_sharing.ideal
        in
        Stats.Csv.write_named_series ~path ~series;
        Printf.printf "wrote %s\n" path)
      csv
  in
  Cmd.v (Cmd.info "link-sharing" ~doc:"Hierarchical link sharing with TCP (paper Figs. 8-9).")
    Term.(
      const run $ hier_engine_arg $ pool_term
      $ discipline_arg
      $ horizon_arg Experiments.Paper_hierarchies.fig8_horizon $ csv_arg)

(* -- wfi ----------------------------------------------------------------- *)

let wfi_cmd =
  let run pool ns =
    Printf.printf "%-12s %6s %14s %18s\n" "discipline" "N" "measured T-WFI" "WF2Q+ bound";
    (* the whole discipline × N grid goes through the pool at once, so -j
       covers all of it; sweep_grid's factory-major order matches the
       sequential print order this command has always used *)
    List.iter
      (fun (m : Experiments.Wfi_probe.measurement) ->
        Printf.printf "%-12s %6d %14.3f %18.3f\n" m.discipline m.n m.measured_twfi
          m.wf2q_plus_bound)
      (Experiments.Wfi_probe.sweep_grid ~pool ~factories:Hpfq.Disciplines.pfq ~ns ())
  in
  let ns_arg =
    Arg.(value & opt (list pos_int) [ 4; 8; 16; 32; 64 ] & info [ "n" ] ~docv:"N,..." ~doc:"Session counts.")
  in
  Cmd.v (Cmd.info "wfi" ~doc:"Empirical worst-case fair index sweep.")
    Term.(const run $ pool_term $ ns_arg)

(* A tree file both engines accept, or exit 1 naming what is wrong: a
   syntax error, a failed validation, or a bare-leaf root. *)
let load_tree path =
  let fail e =
    Printf.eprintf "error: %s\n" e;
    exit 1
  in
  match Hpfq.Tree_syntax.parse_file path with
  | Error e -> fail e
  | Ok spec -> (
    match Hpfq.Hier_tree.create spec with
    | _ -> spec
    | exception Invalid_argument e -> fail e)

(* -- custom -------------------------------------------------------------- *)

let custom_cmd =
  let run engine pool discipline tree_file horizon =
    let spec = load_tree tree_file in
    Format.printf "Running all-leaves-saturated workload on:@.%a@."
      Hpfq.Class_tree.pp spec;
    let leaves = Hpfq.Class_tree.leaves spec in
    (* the packet and fluid halves are independent, so they fan out on
       the pool like Link_sharing.run *)
    let run_packet () =
      let sim = Engine.Simulator.create () in
      let h = Hpfq.Hier_engine.create ~sim ~spec ~factory:discipline ~engine () in
      let packet = 8.0 *. 1024.0 *. 8.0 in
      List.iter
        (fun (name, _) ->
          let leaf = Hpfq.Hier_engine.leaf_id h name in
          ignore
            (Traffic.Source.greedy ~sim
               ~emit:(fun ~size_bits ->
                 ignore (Hpfq.Hier_engine.inject h ~leaf ~size_bits))
               ~packet_bits:packet
               ~backlog_packets:
                 (max 8 (int_of_float (Hpfq.Class_tree.rate spec *. 0.5 /. packet)))
               ~top_up_every:0.25 ~stop_at:horizon ()))
        leaves;
      Engine.Simulator.run ~until:horizon sim;
      List.map
        (fun (name, _) -> (name, Hpfq.Hier_engine.departed_bits h ~node:name))
        leaves
    in
    let run_fluid () =
      let fluid = Fluid.Hgps.create ~spec () in
      List.iter
        (fun (name, _) ->
          Fluid.Hgps.set_persistent fluid ~at:0.0
            ~leaf:(Fluid.Hgps.leaf_id fluid name) true)
        leaves;
      Fluid.Hgps.advance fluid ~to_:horizon;
      List.map (fun (name, _) -> (name, Fluid.Hgps.served_bits fluid ~node:name)) leaves
    in
    let halves =
      Parallel.Pool.map pool ~tasks:2 ~f:(fun i ->
          if i = 0 then run_packet () else run_fluid ())
    in
    Format.printf "@.%-20s %14s %14s@." "leaf" "measured" "H-GPS ideal";
    List.iter2
      (fun (name, measured) (_, ideal) ->
        Format.printf "%-20s %10.3f Mbps %10.3f Mbps@." name
          (measured /. horizon /. 1e6) (ideal /. horizon /. 1e6))
      halves.(0) halves.(1)
  in
  let tree_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "tree" ] ~docv:"FILE" ~doc:"Class hierarchy in hpfq tree syntax.")
  in
  Cmd.v
    (Cmd.info "custom"
       ~doc:"Saturate every leaf of a user-defined hierarchy and compare shares to H-GPS.")
    Term.(
      const run $ hier_engine_arg $ pool_term
      $ discipline_arg $ tree_arg $ horizon_arg 2.0)

(* -- shard --------------------------------------------------------------- *)

let shard_cmd =
  let run engine pool links rounds flows_per_link overload seed observe json
      metrics_out =
    let workers = Parallel.Pool.jobs pool in
    let workload =
      {
        (Shard.Device.default_workload ~rounds) with
        Shard.Device.flows_per_link;
        overload;
        seed;
      }
    in
    let t = Shard.Device.create ~workers ~engine ~workload ~observe ~links () in
    let r = Shard.Device.run t in
    (* everything on stdout is a pure function of the workload — the CI
       smoke diffs -j2 against -j1 — so wall clock and worker count go to
       stderr *)
    Printf.printf "links=%d rounds=%d flows/link=%d overload=%g seed=%Ld\n"
      (Shard.Device.links t) rounds flows_per_link overload seed;
    print_string (Stats.Report.to_string (Shard.Device.report r));
    print_string (Stats.Report.to_string (Shard.Device.sim_report r));
    Option.iter
      (fun path ->
        match Shard.Device.metrics_report r with
        | Some m ->
          Stats.Report.to_csv m ~path;
          Printf.printf "wrote %s\n" path
        | None -> prerr_endline "--metrics requires --observe")
      metrics_out;
    Printf.printf "device_hash %s\n" (Shard.Device.hash_hex r.Shard.Device.device_hash);
    Option.iter
      (fun path ->
        let module Json = Bench_kit.Json in
        let row_json (lr : Shard.Device.link_result) =
          Json.Obj
            [
              ("link", Json.Num (float_of_int lr.Shard.Device.link));
              ("pkts", Json.Num (float_of_int lr.Shard.Device.departed_pkts));
              ("bits", Json.Num lr.Shard.Device.departed_bits);
              ("drops", Json.Num (float_of_int lr.Shard.Device.drops));
              ("events", Json.Num (float_of_int lr.Shard.Device.events));
              ("final_s", Json.Num lr.Shard.Device.final_time);
              ("trace_hash", Json.Str (Shard.Device.hash_hex lr.Shard.Device.trace_hash));
            ]
        in
        let report_rows rep =
          Json.Arr
            (List.map
               (fun row -> Json.Arr (List.map (fun c -> Json.Str c) row))
               (Stats.Report.rows rep))
        in
        Json.to_file path
          (Json.Obj
             ([
                ("schema", Json.Str "hpfq-sim-shard-v1");
                ("links", Json.Num (float_of_int (Shard.Device.links t)));
                ("workers", Json.Num (float_of_int workers));
                ("rounds", Json.Num (float_of_int rounds));
                ("flows_per_link", Json.Num (float_of_int flows_per_link));
                ("seed", Json.Str (Int64.to_string seed));
                ("total_pkts", Json.Num (float_of_int r.Shard.Device.total_pkts));
                ("total_bits", Json.Num r.Shard.Device.total_bits);
                ("total_drops", Json.Num (float_of_int r.Shard.Device.total_drops));
                ("total_events", Json.Num (float_of_int r.Shard.Device.total_events));
                ("wall_s", Json.Num r.Shard.Device.wall_s);
                ("device_hash", Json.Str (Shard.Device.hash_hex r.Shard.Device.device_hash));
                ("per_link", Json.Arr (Array.to_list (Array.map row_json r.Shard.Device.per_link)));
                ("sim_report", report_rows (Shard.Device.sim_report r));
              ]
             @
             match Shard.Device.metrics_report r with
             | Some m -> [ ("metrics", report_rows m) ]
             | None -> []));
        Printf.printf "wrote %s\n" path)
      json;
    Printf.eprintf "wall %.3f s, %.0f pkts/s aggregate over %d worker(s)\n"
      r.Shard.Device.wall_s
      (float_of_int r.Shard.Device.total_pkts /. r.Shard.Device.wall_s)
      workers
  in
  let links_arg =
    Arg.(value & opt pos_int 64 & info [ "links" ] ~docv:"N" ~doc:"Output links (ports) in the device.")
  in
  let rounds_arg =
    Arg.(
      value & opt nonneg_int 200
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Arrival rounds; every flow draws one burst per round.")
  in
  let flows_arg =
    Arg.(
      value & opt pos_int 4
      & info [ "flows-per-link" ] ~docv:"N" ~doc:"Average flow population per link.")
  in
  let overload_arg =
    Arg.(
      value & opt pos_float 1.2
      & info [ "overload" ] ~docv:"X"
          ~doc:"Offered load / link capacity; > 1 exercises queue caps and drops.")
  in
  let observe_arg =
    Arg.(
      value & flag
      & info [ "observe" ] ~doc:"Attach per-link traces and keep per-node metrics.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Dump totals, per-link rows and merged reports as JSON.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:"Dump the merged per-link node metrics as CSV (needs --observe).")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run the multi-port device: N links, each an independent H-WF2Q+ \
          instance replaying its own arrivals, fanned over -j worker \
          domains. Stdout is bit-identical for any -j.")
    Term.(
      const run $ hier_engine_arg $ pool_term $ links_arg $ rounds_arg
      $ flows_arg $ overload_arg $ seed_arg $ observe_arg $ json_arg
      $ metrics_arg)

(* -- replay -------------------------------------------------------------- *)

let replay_cmd =
  let run engine trace_file tree_file burst seed duration mean_pkts
      headroom save =
    let user_spec = Option.map load_tree tree_file in
    let trace =
      match trace_file with
      | Some path -> (
        try Traffic.Trace.load_any ~path
        with Failure e | Sys_error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1)
      | None ->
        (* synthesize an internet mix over the hierarchy's leaves (or a
           default 64-leaf balanced tree when none was given) *)
        let leaves =
          match user_spec with
          | Some spec -> List.map fst (Hpfq.Class_tree.leaves spec)
          | None -> List.init 64 (Printf.sprintf "leaf%d")
        in
        Traffic.Trace.internet_mix ~seed ~leaves ~duration
          ~mean_pkts_per_leaf:mean_pkts ()
    in
    if trace = [] then begin
      Printf.eprintf "error: empty trace\n";
      exit 1
    end;
    let spec =
      match user_spec with
      | Some spec -> spec (* user rates as given *)
      | None ->
        (* one leaf per distinct trace flow, equal shares, link sized to
           [headroom] x the trace's offered load *)
        let names =
          List.sort_uniq String.compare
            (List.map (fun e -> e.Traffic.Trace.leaf) trace)
        in
        let span =
          Float.max 1e-9
            (List.fold_left (fun a e -> Float.max a e.Traffic.Trace.time) 0.0 trace)
        in
        (* summed in time order, so a file whose rows are shuffled gets
           the same link rate to the last bit *)
        let total_bits =
          List.fold_left
            (fun a e -> a +. e.Traffic.Trace.size_bits)
            0.0
            (List.stable_sort compare trace)
        in
        let rate = headroom *. total_bits /. span in
        let share = rate /. float_of_int (List.length names) in
        Hpfq.Class_tree.node "root" ~rate
          (List.map (fun n -> Hpfq.Class_tree.leaf n ~rate:share) names)
    in
    Option.iter
      (fun path ->
        if Filename.check_suffix path ".csv" then Traffic.Trace.save ~path trace
        else Traffic.Trace.save_binary ~path trace;
        Printf.printf "wrote %s\n" path)
      save;
    let r = Experiments.Replay_bench.measure ~engine ~spec ~trace ~burst () in
    (* stdout is a pure function of the workload — the hash must match at
       every --burst-max and on every machine; wall clock goes to stderr *)
    Printf.printf "arrivals=%d departures=%d burst_max=%d\n"
      r.Experiments.Replay_bench.arrivals r.departures burst;
    Printf.printf "depart_hash %s\n" r.depart_hash;
    Printf.eprintf "wall %.3f s, %.0f pkts/s over %d leaves\n"
      (float_of_int r.departures /. r.pkts_per_sec)
      r.pkts_per_sec
      (List.length (Hpfq.Class_tree.leaves spec))
  in
  let trace_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Trace to replay, CSV or HPFQTRC2 binary (sniffed by magic). \
             Without it a synthetic internet mix is generated from --seed.")
  in
  let tree_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "tree" ] ~docv:"FILE"
          ~doc:
            "Class hierarchy in hpfq tree syntax (rates taken as given; \
             trace events naming unknown leaves are skipped). Default: one \
             equal-share leaf per trace flow, link sized by --headroom.")
  in
  let burst_arg =
    Arg.(
      value & opt pos_int 8
      & info [ "burst-max" ] ~docv:"N"
          ~doc:
            "Burst-drain cap: consecutive departures one simulator event may \
             execute while the link stays backlogged. The departure hash is \
             identical at every setting.")
  in
  let duration_arg =
    Arg.(
      value & opt pos_float 1.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Horizon of the generated trace (ignored with --trace).")
  in
  let mean_pkts_arg =
    Arg.(
      value & opt pos_float 64.0
      & info [ "mean-pkts" ] ~docv:"N"
          ~doc:"Mean packets per leaf of the generated trace (ignored with --trace).")
  in
  let headroom_arg =
    Arg.(
      value & opt pos_float 1.25
      & info [ "headroom" ] ~docv:"X"
          ~doc:"Link rate / offered load for the default hierarchy (ignored with --tree).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"PATH"
          ~doc:
            "Also write the replayed trace: CSV when $(docv) ends in .csv, \
             HPFQTRC2 binary otherwise.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a packet trace (or a generated internet mix) through an \
          H-WF2Q+ hierarchy with burst-drained departures, printing the \
          deterministic departure hash.")
    Term.(
      const run $ hier_engine_arg $ trace_arg
      $ tree_arg $ burst_arg $ seed_arg $ duration_arg $ mean_pkts_arg
      $ headroom_arg $ save_arg)

(* -- tree ---------------------------------------------------------------- *)

let tree_cmd =
  let run () =
    Format.printf "Fig. 3 hierarchy:@.%a@." Hpfq.Class_tree.pp
      Experiments.Paper_hierarchies.fig3;
    Format.printf "Fig. 8 hierarchy:@.%a@." Hpfq.Class_tree.pp
      Experiments.Paper_hierarchies.fig8
  in
  Cmd.v (Cmd.info "tree" ~doc:"Print the paper's class hierarchies.")
    Term.(const run $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "hpfq-sim" ~version:"1.0.0"
             ~doc:"Reproduction driver for Bennett & Zhang, SIGCOMM'96.")
          [
            fig2_cmd; trace_cmd; delay_cmd; link_sharing_cmd; wfi_cmd; shard_cmd;
            replay_cmd; tree_cmd; custom_cmd;
          ]))
