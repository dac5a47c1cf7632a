(* Integration tests over the experiment harness: shortened versions of the
   paper's runs, checking the qualitative results the paper reports. *)

module E = Experiments

let test_fig2_reproduces_paper () =
  let r = E.Fig2_walkthrough.run () in
  (* GPS finish times: 2k for p1^k (k<=10), 21 for p1^11 *)
  let gps_s1 = E.Fig2_walkthrough.session1_finishes r.gps in
  List.iteri
    (fun i t ->
      let expected = if i < 10 then 2.0 *. float_of_int (i + 1) else 21.0 in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "gps p1^%d" (i + 1)) expected t)
    gps_s1;
  (* WFQ runs session 1 N/2 packets ahead; WF2Q/WF2Q+ stay under 1 *)
  let lead name = E.Fig2_walkthrough.max_service_lead (List.assoc name r.packet) in
  Alcotest.(check (float 1e-6)) "WFQ lead = 5" 5.0 (lead "WFQ");
  Alcotest.(check bool) "WF2Q lead < 1" true (lead "WF2Q" < 1.0);
  Alcotest.(check bool) "WF2Q+ lead < 1" true (lead "WF2Q+" < 1.0)

let test_delay_experiment_ordering () =
  let run factory =
    E.Delay_experiment.run ~factory ~scenario:E.Delay_experiment.S1_constant_and_trains
      ~horizon:4.0 ()
  in
  let wf2qp = run Hpfq.Disciplines.wf2q_plus in
  let wfq = run Hpfq.Disciplines.wfq in
  let max_of r = Stats.Delay_stats.max_delay r.E.Delay_experiment.delays in
  (* the paper's headline: H-WF2Q+ respects the Cor.2 bound; H-WFQ is worse *)
  Alcotest.(check bool) "H-WF2Q+ within Cor.2 bound" true
    (max_of wf2qp <= E.Delay_experiment.rt1_delay_bound);
  Alcotest.(check bool)
    (Printf.sprintf "H-WFQ worse (%.4f vs %.4f)" (max_of wfq) (max_of wf2qp))
    true
    (max_of wfq > max_of wf2qp);
  Alcotest.(check bool) "RT-1 packets flowed" true (wf2qp.E.Delay_experiment.rt_packets > 100);
  Alcotest.(check bool) "high utilisation" true (wf2qp.E.Delay_experiment.link_utilization > 0.8)

let test_delay_scenarios_differ () =
  let run scenario =
    E.Delay_experiment.run ~factory:Hpfq.Disciplines.wf2q_plus ~scenario ~horizon:4.0 ()
  in
  let s1 = run E.Delay_experiment.S1_constant_and_trains in
  let s2 = run E.Delay_experiment.S2_overloaded_poisson in
  (* without the CS trains RT-1's worst case drops substantially *)
  Alcotest.(check bool) "S2 max < S1 max" true
    (Stats.Delay_stats.max_delay s2.delays < Stats.Delay_stats.max_delay s1.delays)

let test_wfi_probe_shapes () =
  let wfq = E.Wfi_probe.sweep ~factory:Hpfq.Disciplines.wfq ~ns:[ 4; 16; 64 ] () in
  (match wfq with
  | [ a; b; c ] ->
    Alcotest.(check (float 1e-6)) "WFQ N=4" 3.0 a.measured_twfi;
    Alcotest.(check (float 1e-6)) "WFQ N=16" 15.0 b.measured_twfi;
    Alcotest.(check (float 1e-6)) "WFQ N=64" 63.0 c.measured_twfi
  | _ -> Alcotest.fail "sweep size");
  List.iter
    (fun (m : E.Wfi_probe.measurement) ->
      Alcotest.(check bool)
        (Printf.sprintf "WF2Q+ probe within bound at N=%d" m.n)
        true
        (m.measured_twfi <= m.wf2q_plus_bound +. 1e-9))
    (E.Wfi_probe.sweep ~factory:Hpfq.Disciplines.wf2q_plus ~ns:[ 4; 16; 64 ] ())

let test_paper_hierarchies_valid () =
  List.iter
    (fun (name, tree) ->
      match Hpfq.Class_tree.validate tree with
      | Ok () -> ()
      | Error errors ->
        Alcotest.fail (name ^ ": " ^ String.concat "; " errors))
    [
      ("fig1", E.Paper_hierarchies.fig1 ~link_rate:1.0e8);
      ("fig3", E.Paper_hierarchies.fig3);
      ("fig8", E.Paper_hierarchies.fig8);
    ];
  (* stated numbers *)
  Alcotest.(check (float 1e3)) "RT-1 = 9 Mbps" 9.0e6 E.Paper_hierarchies.rt1_rate;
  Alcotest.(check int) "fig3 has 22 leaves" 22
    (List.length (Hpfq.Class_tree.leaves E.Paper_hierarchies.fig3));
  Alcotest.(check int) "fig8 depth 5" 5 (Hpfq.Class_tree.depth E.Paper_hierarchies.fig8)

let test_link_sharing_short () =
  (* a 2-second cut of Fig 9: TCP sessions reach their guaranteed shares *)
  let r = E.Link_sharing.run ~horizon:2.0 () in
  let interval =
    List.find
      (fun i -> i.E.Link_sharing.t0 = 0.5)
      r.E.Link_sharing.intervals
  in
  List.iter
    (fun (row : E.Link_sharing.interval_row) ->
      let rel = Float.abs (row.measured -. row.ideal) /. row.ideal in
      Alcotest.(check bool)
        (Printf.sprintf "%s tracks ideal (%.2f vs %.2f)" row.leaf (row.measured /. 1e6)
           (row.ideal /. 1e6))
        true (rel < 0.2))
    interval.E.Link_sharing.rows;
  (* no TCP should be starved or timing out persistently *)
  List.iter
    (fun (leaf, _, timeouts) ->
      Alcotest.(check bool) (leaf ^ " few timeouts") true (timeouts <= 2))
    r.E.Link_sharing.tcp_stats

(* a horizon that is not > 0 is a named error, not an empty run whose
   report then fails somewhere else *)
let test_bad_horizon_rejected () =
  List.iter
    (fun horizon ->
      let rejects name f =
        match f () with
        | exception Invalid_argument msg ->
          Alcotest.(check bool) (name ^ " names itself: " ^ msg) true
            (String.starts_with ~prefix:name msg)
        | _ -> Alcotest.failf "%s accepted horizon %g" name horizon
      in
      rejects "Delay_experiment.run" (fun () ->
          ignore
            (E.Delay_experiment.run ~factory:Hpfq.Disciplines.wf2q_plus
               ~scenario:E.Delay_experiment.S1_constant_and_trains ~horizon ()));
      rejects "Link_sharing.run" (fun () -> ignore (E.Link_sharing.run ~horizon ())))
    [ 0.0; -1.0; Float.nan ]

let () =
  Alcotest.run "experiments"
    [
      ( "paper",
        [
          Alcotest.test_case "fig2 reproduces" `Quick test_fig2_reproduces_paper;
          Alcotest.test_case "delay ordering" `Quick test_delay_experiment_ordering;
          Alcotest.test_case "scenarios differ" `Quick test_delay_scenarios_differ;
          Alcotest.test_case "wfi probe shapes" `Quick test_wfi_probe_shapes;
          Alcotest.test_case "hierarchies valid" `Quick test_paper_hierarchies_valid;
          Alcotest.test_case "bad horizon rejected" `Quick test_bad_horizon_rejected;
          Alcotest.test_case "link sharing (short)" `Slow test_link_sharing_short;
        ] );
    ]
