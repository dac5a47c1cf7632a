(* Cross-module integration scenarios that mirror deployment patterns:
   shaping hostile traffic into a guaranteed class, mixed packet sizes
   against Theorem 4's exact WFI formula, and hierarchy introspection. *)

module Sim = Engine.Simulator
module Hier = Hpfq.Hier
module CT = Hpfq.Class_tree

(* A hostile (non-conformant) source shaped by a token bucket before a
   guaranteed class: the post-shaper stream is (sigma, rho)-conformant, so
   Theorem 4(3)'s bound applies from the shaper's output onward. *)
let test_shaper_restores_delay_bound () =
  let sim = Sim.create () in
  let sigma = 4.0 and rho = 0.3 in
  let max_delay = ref 0.0 in
  let spec =
    CT.node "link" ~rate:1.0
      [ CT.leaf "guarded" ~rate:rho; CT.leaf "bulk" ~rate:(1.0 -. rho) ]
  in
  (* measure delay from SHAPER OUTPUT to departure: stamp via arrival time *)
  let h =
    Hier.create ~sim ~spec ~make_policy:(Hier.uniform Hpfq.Disciplines.wf2q_plus)
      ~on_depart:(fun pkt ~leaf t ->
        if String.equal leaf "guarded" then
          max_delay := Float.max !max_delay (t -. pkt.Net.Packet.arrival))
      ()
  in
  let guarded = Hier.leaf_id h "guarded" and bulk = Hier.leaf_id h "bulk" in
  let shaper =
    Traffic.Shaper.create ~sim ~sigma_bits:sigma ~rho
      ~emit:(fun ~size_bits -> ignore (Hier.inject h ~leaf:guarded ~size_bits))
  in
  (* hostile: 3x the reserved rate, bursty *)
  ignore
    (Traffic.Source.poisson ~sim
       ~emit:(fun ~size_bits -> Traffic.Shaper.offer shaper ~size_bits)
       ~rng:(Engine.Rng.create 5L) ~mean_rate:(3.0 *. rho) ~packet_bits:1.0
       ~stop_at:100.0 ());
  ignore
    (Traffic.Source.greedy ~sim
       ~emit:(fun ~size_bits -> ignore (Hier.inject h ~leaf:bulk ~size_bits))
       ~packet_bits:1.0 ~backlog_packets:64 ~top_up_every:30.0 ~stop_at:100.0 ());
  Sim.run ~until:200.0 sim;
  let bound =
    Hpfq.Theory.delay_bound_standalone_wf2q ~sigma ~r_i:rho ~l_max:1.0 ~r:1.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "shaped traffic within Thm 4.3 bound (%.3f <= %.3f)" !max_delay bound)
    true
    (!max_delay > 0.0 && !max_delay <= bound +. 1e-9);
  (* and the shaper really was needed: it held traffic back *)
  Alcotest.(check bool) "shaper released plenty" true (Traffic.Shaper.released shaper > 50)

(* Mixed packet sizes: Theorem 4(2) gives
   alpha_i = L_i,max + (L_max - L_i,max) r_i/r. A session with SMALL packets
   competing against big-packet sessions must still meet its (tighter)
   T-WFI-derived delay bound. *)
let test_mixed_sizes_wfi_bound () =
  let sim = Sim.create () in
  let r0 = 0.25 in
  let l_small = 0.5 and l_big = 2.0 in
  let max_extra = ref 0.0 in
  let server = ref None in
  let srv =
    Hpfq.Server.create ~sim ~rate:1.0 ~policy:(Hpfq.Disciplines.wf2q_plus.make ~rate:1.0)
      ~on_depart:(fun pkt t ->
        if pkt.Net.Packet.flow = 0 then begin
          let srv = Option.get !server in
          ignore srv;
          (* T-WFI form of eq. 10: d - a <= Q(a)/r_i + alpha/r_i; with sparse
             arrivals Q(a) = own size *)
          let extra = t -. pkt.Net.Packet.arrival -. (l_small /. r0) in
          max_extra := Float.max !max_extra extra
        end)
      ()
  in
  server := Some srv;
  ignore (Hpfq.Server.open_session srv ~rate:r0 ());
  let bgs = List.init 3 (fun _ ->
      Sched.Session_handle.slot (Hpfq.Server.open_session srv ~rate:0.25 ())) in
  (* sparse small-packet session: every packet meets an empty own queue *)
  ignore
    (Traffic.Source.cbr ~sim
       ~emit:(fun ~size_bits -> ignore (Hpfq.Server.inject srv ~session:0 ~size_bits))
       ~rate:(r0 /. 4.0) ~packet_bits:l_small ~stop_at:80.0 ());
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         List.iter
           (fun s ->
             for _ = 1 to 60 do
               ignore (Hpfq.Server.inject srv ~session:s ~size_bits:l_big)
             done)
           bgs));
  Sim.run ~until:120.0 sim;
  let alpha = Hpfq.Theory.bwfi_wf2q ~l_i_max:l_small ~l_max:l_big ~r_i:r0 ~r:1.0 in
  let twfi = Hpfq.Theory.twfi_of_bwfi ~bwfi:alpha ~r_i:r0 in
  (* alpha = 0.5 + 1.5*0.25 = 0.875 -> T-WFI = 3.5 *)
  Alcotest.(check (float 1e-9)) "Thm 4.2 mixed-size alpha" 0.875 alpha;
  Alcotest.(check bool)
    (Printf.sprintf "measured extra wait %.3f <= T-WFI %.3f" !max_extra twfi)
    true
    (!max_extra <= twfi +. 1e-9)

(* Hierarchy introspection stays coherent while running. *)
let test_hier_introspection () =
  let sim = Sim.create () in
  let spec =
    CT.node "link" ~rate:1.0
      [ CT.node "mid" ~rate:0.6 [ CT.leaf "x" ~rate:0.6 ]; CT.leaf "y" ~rate:0.4 ]
  in
  let h = Hier.create ~sim ~spec ~make_policy:(Hier.uniform Hpfq.Disciplines.wf2q_plus) () in
  let x = Hier.leaf_id h "x" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 6 do
           ignore (Hier.inject h ~leaf:x ~size_bits:3.0)
         done));
  Sim.run sim;
  (* mid committed 6 packets of 3 bits at rate 0.6: T_mid = 18/0.6 = 30 *)
  Alcotest.(check (float 1e-6)) "reference time = W/r" 30.0 (Hier.ref_time h ~node:"mid");
  Alcotest.(check (float 1e-6)) "W_mid" 18.0 (Hier.departed_bits h ~node:"mid");
  Alcotest.(check bool) "interior virtual time advanced" true
    (Hier.node_virtual_time h ~node:"mid" > 0.0);
  Alcotest.(check bool) "link idle at end" false (Hier.link_busy h);
  Alcotest.(check (float 1e-9)) "x queue drained" 0.0 (Hier.queue_bits h ~leaf:x)

(* Deterministic replay: identical seeds give identical experiment results. *)
let test_experiment_determinism () =
  let run () =
    let r =
      Experiments.Delay_experiment.run ~factory:Hpfq.Disciplines.wf2q_plus
        ~scenario:Experiments.Delay_experiment.S2_overloaded_poisson ~horizon:3.0
        ~seed:42L ()
    in
    ( Stats.Delay_stats.count r.delays,
      Stats.Delay_stats.max_delay r.delays,
      Stats.Delay_stats.mean r.delays )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let () =
  Alcotest.run "integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "shaper restores delay bound" `Quick
            test_shaper_restores_delay_bound;
          Alcotest.test_case "mixed sizes WFI bound" `Quick test_mixed_sizes_wfi_bound;
          Alcotest.test_case "hier introspection" `Quick test_hier_introspection;
          Alcotest.test_case "experiment determinism" `Quick test_experiment_determinism;
        ] );
    ]
