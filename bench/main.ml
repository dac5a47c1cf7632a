(* Benchmark harness: what no hpfq_sim command answers — the adversarial
   delay bounds, the complexity and heap microbenchmarks backing the
   O(log N) claim, the reference-clock and end-to-end ablations — and the
   bench suites with their guards. The paper's figures are hpfq_sim
   commands (EXPERIMENTS.md): `hpfq_sim fig2`, `delay -s 1|2|3 -d
   wf2q+,wfq,scfq,sfq` (Figs. 4-7; Fig. 5's lag is its `lag_max=` column
   and the `lag:<name>` series of `--csv`), `link-sharing` and `wfi`.

     dune exec bench/main.exe            run the ids below and the events
                                         (the simulator's event sets
                                         under timer churn), hier and
                                         churn suites
     dune exec bench/main.exe -- ID...   run selected ids:
       bounds complexity heaps refclock e2e,
     every bench suite's <name>, <name>-quick and <name>-guard
     (lib/experiments/suites.ml), check, trace-overhead and soak.

   Throughput of the layers benchmark/ measures (one port, a deep tree,
   trace replay, the epoch layer) is judged there, against the parent
   commit on the same host: `bash benchmark/run.sh --workload port_4k`.

   Benches and guards belong in the release profile
   (`dune exec --profile release bench/main.exe -- check`): the dev
   profile passes -opaque, which defeats cross-module inlining and so
   inflates the allocation the guards hold against their ceilings.

   Absolute numbers are this simulator's, not the 1996 testbed's; the
   shapes (who wins, by what factor, where crossovers fall) are the
   reproduction targets recorded in EXPERIMENTS.md. *)

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* the four one-level disciplines every delay table compares *)
let delay_disciplines =
  [
    Hpfq.Disciplines.wf2q_plus;
    Hpfq.Disciplines.wfq;
    Hpfq.Disciplines.scfq;
    Hpfq.Disciplines.sfq;
  ]

(* ------------------------------------------------------------------ *)
(* BOUNDS: Theorem 4(3) / Corollary 2 delay bounds, adversarial load   *)
(* ------------------------------------------------------------------ *)

let bounds () =
  section "BOUNDS: leaky-bucket session delay vs Cor.2 bound (H-WF2Q+)";
  (* a (sigma, rho)-constrained session inside the Fig. 3 tree, greedy
     conforming source, everything else saturated *)
  let module H = Experiments.Paper_hierarchies in
  let sigma = H.rt1_sigma_bits in
  let bound = Experiments.Delay_experiment.rt1_delay_bound in
  Printf.printf "%-12s %14s %14s %8s\n" "discipline" "max delay(ms)" "bound(ms)" "within";
  List.iter
    (fun factory ->
      let sim = Engine.Simulator.create () in
      let delays = Stats.Delay_stats.create () in
      let h =
        Hpfq.Hier.create ~sim ~spec:H.fig3
          ~make_policy:(Hpfq.Hier.uniform factory)
          ~on_depart:(fun pkt ~leaf t ->
            if leaf = "RT-1" then
              Stats.Delay_stats.record delays ~time:t ~delay:(t -. pkt.Net.Packet.arrival))
          ()
      in
      let emit_to name =
        let leaf = Hpfq.Hier.leaf_id h name in
        fun ~size_bits -> ignore (Hpfq.Hier.inject h ~leaf ~size_bits)
      in
      ignore
        (Traffic.Source.leaky_bucket_greedy ~sim ~emit:(emit_to "RT-1") ~sigma_bits:sigma
           ~rho:H.rt1_rate ~packet_bits:H.fig3_packet_bits ~stop_at:6.0 ());
      ignore
        (Traffic.Source.greedy ~sim ~emit:(emit_to "BE-1") ~packet_bits:H.fig3_packet_bits
           ~backlog_packets:64 ~stop_at:6.0 ());
      for i = 1 to 10 do
        ignore
          (Traffic.Source.greedy ~sim
             ~emit:(emit_to (Printf.sprintf "CS-%d" i))
             ~packet_bits:H.fig3_packet_bits ~backlog_packets:16 ~stop_at:6.0 ());
        ignore
          (Traffic.Source.greedy ~sim
             ~emit:(emit_to (Printf.sprintf "PS-%d" i))
             ~packet_bits:H.fig3_packet_bits ~backlog_packets:16 ~stop_at:6.0 ())
      done;
      Engine.Simulator.run ~until:8.0 sim;
      let max_delay = Stats.Delay_stats.max_delay delays in
      Printf.printf "%-12s %14.3f %14.3f %8s\n" factory.Sched.Sched_intf.kind
        (max_delay *. 1e3) (bound *. 1e3)
        (if max_delay <= bound +. 1e-9 then "yes" else "NO"))
    delay_disciplines

(* ------------------------------------------------------------------ *)
(* COMPLEXITY: per-operation cost vs number of sessions (bechamel)     *)
(* ------------------------------------------------------------------ *)

let run_bechamel tests =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
        in
        (name, ns) :: acc)
      results []
  in
  List.sort compare rows

let complexity () =
  section "COMPLEXITY: ns per scheduling cycle vs N (O(log N) claim)";
  let sizes = [ 16; 64; 256; 1024; 4096 ] in
  let factories =
    [ Hpfq.Disciplines.wf2q_plus; Hpfq.Disciplines.wfq; Hpfq.Disciplines.scfq;
      Hpfq.Disciplines.drr ]
  in
  let tests =
    List.concat_map
      (fun factory ->
        List.map
          (fun n ->
            Bechamel.Test.make
              ~name:(Printf.sprintf "%s/N=%d" factory.Sched.Sched_intf.kind n)
              (Bechamel.Staged.stage (Bench_kit.Perf.loaded_policy factory n)))
          sizes)
      factories
  in
  let grouped = Bechamel.Test.make_grouped ~name:"cycle" tests in
  let rows = run_bechamel grouped in
  List.iter (fun (name, ns) -> Printf.printf "%-28s %10.1f ns/cycle\n" name ns) rows;
  print_endline
    "(WF2Q+ should grow ~log N; exact-GPS WFQ may show super-log growth; DRR is O(1))"

module type HEAP = sig
  type t

  val create : int -> t
  val add : t -> key:int -> prio:float -> unit
  val is_empty : t -> bool
  val pop_min : t -> (int * float) option
end

let heaps () =
  section "HEAPS: add+pop cost, 4-ary (every scheduler) vs binary (its test reference)";
  let sizes = [ 256; 4096 ] in
  let cycle (module H : HEAP) seeds () =
    let h = H.create (Array.length seeds) in
    Array.iteri (fun k p -> H.add h ~key:k ~prio:p) seeds;
    while not (H.is_empty h) do
      ignore (H.pop_min h)
    done
  in
  let heaps =
    [ ("indexed4", (module Prioq.Indexed_heap4 : HEAP)); ("indexed", (module Prioq.Indexed_heap)) ]
  in
  let tests =
    List.concat_map
      (fun n ->
        let seeds = Array.init n (fun i -> float_of_int ((i * 7919) mod 104729)) in
        List.map
          (fun (name, heap) ->
            Bechamel.Test.make
              ~name:(Printf.sprintf "%s/N=%d" name n)
              (Bechamel.Staged.stage (cycle heap seeds)))
          heaps)
      sizes
  in
  let rows = run_bechamel (Bechamel.Test.make_grouped ~name:"heap" tests) in
  List.iter (fun (name, ns) -> Printf.printf "%-24s %12.1f ns/full-cycle\n" name ns) rows

(* ------------------------------------------------------------------ *)
(* REFCLOCK: ablation — root policy on real vs reference time          *)
(* ------------------------------------------------------------------ *)

let refclock () =
  section "REFCLOCK ablation: root clock real-time vs reference-time";
  let module H = Experiments.Paper_hierarchies in
  List.iter
    (fun root_clock ->
      let sim = Engine.Simulator.create () in
      let delays = Stats.Delay_stats.create () in
      let h =
        Hpfq.Hier.create ~sim ~spec:H.fig3
          ~make_policy:(Hpfq.Hier.uniform Hpfq.Disciplines.wf2q_plus)
          ~root_clock
          ~on_depart:(fun pkt ~leaf t ->
            if leaf = "RT-1" then
              Stats.Delay_stats.record delays ~time:t ~delay:(t -. pkt.Net.Packet.arrival))
          ()
      in
      let emit_to name =
        let leaf = Hpfq.Hier.leaf_id h name in
        fun ~size_bits -> ignore (Hpfq.Hier.inject h ~leaf ~size_bits)
      in
      (* idle gaps at the root are where the two clocks differ: drive RT-1
         alone with sparse on/off traffic *)
      ignore
        (Traffic.Source.on_off ~sim ~emit:(emit_to "RT-1") ~peak_rate:(4.0 *. H.rt1_rate)
           ~packet_bits:H.fig3_packet_bits ~on_duration:0.025 ~off_duration:0.075
           ~start:0.2 ~stop_at:6.0 ());
      ignore
        (Traffic.Source.cbr ~sim ~emit:(emit_to "PS-1") ~rate:H.ps_rate
           ~packet_bits:H.fig3_packet_bits ~stop_at:6.0 ());
      Engine.Simulator.run ~until:8.0 sim;
      Printf.printf "root_clock=%-15s max RT-1 delay = %.3f ms over %d pkts\n"
        (match root_clock with `Real_time -> "real-time" | `Reference_time -> "reference")
        (Stats.Delay_stats.max_delay delays *. 1e3)
        (Stats.Delay_stats.count delays))
    [ `Real_time; `Reference_time ]

(* ------------------------------------------------------------------ *)
(* E2E: end-to-end delay across chained H-PFQ servers                  *)
(* ------------------------------------------------------------------ *)

let e2e () =
  section "E2E: worst end-to-end delay vs hop count (guaranteed flow, saturated hops)";
  let hop_spec name =
    Hpfq.Class_tree.node name ~rate:1.0
      [
        Hpfq.Class_tree.leaf (name ^ "/flow") ~rate:0.4;
        Hpfq.Class_tree.leaf (name ^ "/cross") ~rate:0.6;
      ]
  in
  Printf.printf "%-8s %-10s %14s %14s %8s\n" "hops" "discipline" "measured" "bound" "within";
  List.iter
    (fun n_hops ->
      List.iter
        (fun factory ->
          let sim = Engine.Simulator.create () in
          let worst = ref 0.0 in
          let hops =
            List.init n_hops (fun k ->
                let name = Printf.sprintf "h%d" k in
                (name, hop_spec name))
          in
          let p =
            Netgraph.Pipeline.create ~sim ~hops
              ~make_policy:(Hpfq.Hier.uniform factory)
              ~propagation_delay:0.01
              ~on_deliver:(fun ~flow:_ _ ~injected ~delivered ->
                worst := Float.max !worst (delivered -. injected))
              ()
          in
          Netgraph.Pipeline.add_flow p ~name:"f"
            ~route:(List.init n_hops (fun k -> Printf.sprintf "h%d/flow" k));
          let sigma = 3.0 in
          ignore
            (Traffic.Source.leaky_bucket_greedy ~sim
               ~emit:(fun ~size_bits -> Netgraph.Pipeline.inject p ~flow:"f" ~size_bits)
               ~sigma_bits:sigma ~rho:0.4 ~packet_bits:1.0 ~stop_at:40.0 ());
          List.iteri
            (fun k _ ->
              let server = Netgraph.Pipeline.hop_server p (Printf.sprintf "h%d" k) in
              let leaf = Hpfq.Hier.leaf_id server (Printf.sprintf "h%d/cross" k) in
              ignore
                (Traffic.Source.greedy ~sim
                   ~emit:(fun ~size_bits ->
                     ignore (Hpfq.Hier.inject server ~leaf ~size_bits))
                   ~packet_bits:1.0 ~backlog_packets:30 ~top_up_every:15.0
                   ~stop_at:40.0 ()))
            hops;
          Engine.Simulator.run ~until:80.0 sim;
          let bound =
            match Netgraph.Pipeline.end_to_end_bound p ~flow:"f" ~sigma ~l_max:1.0 with
            | Ok b -> b
            | Error e -> failwith e
          in
          Printf.printf "%-8d %-10s %14.3f %14.3f %8s\n" n_hops
            factory.Sched.Sched_intf.kind !worst bound
            (if !worst <= bound +. 1e-9 then "yes" else "NO"))
        [ Hpfq.Disciplines.wf2q_plus; Hpfq.Disciplines.wfq ])
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* SOAK: long-horizon virtual-time drift, fixed vs float              *)
(* ------------------------------------------------------------------ *)

let soak () =
  section "SOAK: long-horizon virtual-time drift, fixed vs float";
  let packets =
    match Sys.getenv_opt "HPFQ_SOAK" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1_000_000_000)
    | None -> 10_000_000
  in
  let results = Experiments.Churn_bench.soak ~packets () in
  Printf.printf "%-10s %12s %20s %16s %6s\n" "engine" "packets" "v_end" "drift" "exact";
  List.iter
    (fun (r : Experiments.Churn_bench.soak_result) ->
      Printf.printf "%-10s %12d %20.6f %16.3e %6b\n" r.s_engine r.s_packets
        r.s_v_end r.s_drift r.s_exact)
    results

(* ------------------------------------------------------------------ *)
(* TRACE-OVERHEAD: cost of the observer hook, off and on              *)
(* ------------------------------------------------------------------ *)

(* The observability contract (Sched_intf): observer = None must be a single
   load+branch per operation. Three variants of the one-level WF2Q+ cycle:
   never-installed, installed-then-removed (must match never-installed), and
   an active observer recording into the obs ring buffer (the real price of
   tracing, paid only when asked for). *)
let trace_overhead () =
  section "TRACE-OVERHEAD: one-level WF2Q+ cycle, observer off vs on";
  let n = 4096 and iters = 200_000 in
  let factory = Hpfq.Disciplines.wf2q_plus in
  let run name setup =
    let policy, cycle = Bench_kit.Perf.loaded_policy_with factory n in
    setup policy;
    let wall, minor = Bench_kit.Perf.time_loop cycle ~iters in
    let pps = float_of_int iters /. wall in
    Printf.printf "%-24s %16.0f pkts/sec %10.3f words/pkt\n" name pps
      (minor /. float_of_int iters);
    pps
  in
  let never = run "never installed" (fun _ -> ()) in
  let disabled =
    run "installed then removed" (fun p ->
        p.Sched.Sched_intf.set_observer (Some Sched.Sched_intf.null_observer);
        p.Sched.Sched_intf.set_observer None)
  in
  let recorder = Obs.Recorder.create ~capacity:(1 lsl 16) () in
  let record kind ~now ~vtime ~session ~bits =
    Obs.Recorder.record recorder ~kind ~node:0 ~session ~time:now ~vtime ~bits
  in
  let ring_observer =
    {
      Sched.Sched_intf.on_arrive =
        (fun ~now ~vtime ~session ~size_bits ->
          record Obs.Event.Arrive ~now ~vtime ~session ~bits:size_bits);
      on_backlog =
        (fun ~now ~vtime ~session ~head_bits ->
          record Obs.Event.Backlog ~now ~vtime ~session ~bits:head_bits);
      on_requeue =
        (fun ~now ~vtime ~session ~head_bits ->
          record Obs.Event.Requeue ~now ~vtime ~session ~bits:head_bits);
      on_idle =
        (fun ~now ~vtime ~session ->
          record Obs.Event.Idle ~now ~vtime ~session ~bits:0.0);
      on_select =
        (fun ~now ~vtime ~session ->
          record Obs.Event.Select ~now ~vtime ~session ~bits:0.0);
    }
  in
  let active =
    run "active ring recorder" (fun p ->
        p.Sched.Sched_intf.set_observer (Some ring_observer))
  in
  Printf.printf "\nremoved-observer overhead vs never-installed: %+.2f%%\n"
    ((never /. disabled -. 1.0) *. 100.0);
  Printf.printf "active tracing cost vs never-installed:       %+.2f%%\n"
    ((never /. active -. 1.0) *. 100.0);
  Printf.printf "(ring retained %d events, dropped %d)\n"
    (Obs.Recorder.length recorder) (Obs.Recorder.dropped recorder);
  (* Same question end to end for the flattened hierarchy engine: the
     saturated Fig. 3 run with no observers installed vs with the full
     structured trace attached to every node (Hier_flat pays the same
     load+branch-per-op contract as the one-level policies). *)
  Printf.printf "\nHier_flat end-to-end (Fig. 3 saturated), observer off vs on:\n";
  let module H = Experiments.Paper_hierarchies in
  let pkt = H.fig3_packet_bits in
  let target = 100_000 in
  let run_fig3 name trace_it =
    let sim = Engine.Simulator.create () in
    let departs = ref 0 in
    let h = ref None in
    let reinject = Hashtbl.create 32 in
    let hier =
      Hpfq.Hier_engine.create ~sim ~spec:H.fig3
        ~factory:Hpfq.Disciplines.wf2q_plus ~engine:`Flat
        ~on_depart:(fun _pkt ~leaf _t ->
          incr departs;
          match Hashtbl.find_opt reinject leaf with
          | Some id ->
            ignore (Hpfq.Hier_engine.inject (Option.get !h) ~leaf:id ~size_bits:pkt)
          | None -> ())
        ()
    in
    h := Some hier;
    if trace_it then
      ignore (Obs.Trace.attach_engine ~capacity:(1 lsl 16) hier);
    List.iter
      (fun (name, id) ->
        Hashtbl.replace reinject name id;
        Hpfq.Hier_engine.inject_many hier ~leaf:id ~size_bits:pkt ~count:2)
      (Hpfq.Hier_engine.leaf_ids hier);
    let horizon = float_of_int target *. pkt /. Hpfq.Class_tree.rate H.fig3 in
    let t0 = Unix.gettimeofday () in
    Engine.Simulator.run ~until:horizon sim;
    let wall = Unix.gettimeofday () -. t0 in
    let pps = float_of_int !departs /. wall in
    Printf.printf "%-24s %16.0f pkts/sec\n" name pps;
    pps
  in
  let flat_off = run_fig3 "no observers" false in
  let flat_on = run_fig3 "full structured trace" true in
  Printf.printf "active tracing cost on Hier_flat:             %+.2f%%\n"
    ((flat_off /. flat_on -. 1.0) *. 100.0)

(* ------------------------------------------------------------------ *)

let figures =
  [
    ("bounds", bounds);
    ("complexity", complexity);
    ("heaps", heaps);
    ("refclock", refclock);
    ("e2e", e2e);
  ]

(* Every registry suite answers to <name> (rewrites its committed
   BENCH_*.json), <name>-quick (smoke scale, BENCH_*_quick.json) and
   <name>-guard (a fresh probe judged within the run; the committed
   baseline is read only for hashes and allocation ceilings; exit 1 on
   FAIL). *)
let suites =
  let module S = Bench_kit.Suite in
  List.concat_map
    (fun (s : S.t) ->
      [
        (s.name, fun () -> ignore (S.run s ~quick:false ~out:s.out));
        (s.name ^ "-quick", fun () -> ignore (S.run s ~quick:true ~out:(S.quick_out s)));
        ( s.name ^ "-guard",
          fun () ->
            let p = S.profile () in
            if not (S.print_guard s p (S.guard s p)) then exit 1 );
      ])
    Experiments.Suites.all

(* every quick run, the fresh and committed report checks, every guard *)
let check () = if not (Bench_kit.Suite.check Experiments.Suites.all) then exit 1

let benches =
  figures @ suites
  @ [
      ("trace-overhead", trace_overhead);
      ("soak", soak);
      ("check", check);
    ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> ids
    | _ -> List.map fst figures @ [ "events"; "hier"; "churn" ]
  in
  List.iter
    (fun id ->
      match List.assoc_opt id benches with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown bench %S; available: %s\n" id
          (String.concat " " (List.map fst benches));
        exit 1)
    requested
