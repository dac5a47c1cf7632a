(* One-level disciplines: per-policy behaviours beyond the shared Fig. 2
   checks in test_server.ml. *)

module Sim = Engine.Simulator
module Server = Hpfq.Server

let feq = Alcotest.float 1e-6

(* Drive a server with a script of (time, session, size) injections;
   returns departures as (session, time). *)
let run_script ~factory ~rates script =
  let sim = Sim.create () in
  let log = ref [] in
  let server =
    Server.create ~sim ~rate:1.0
      ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
      ~on_depart:(fun pkt t -> log := (pkt.Net.Packet.flow, t) :: !log)
      ()
  in
  List.iter (fun r -> ignore (Server.open_session server ~rate:r ())) rates;
  List.iter
    (fun (at, session, size) ->
      ignore
        (Sim.schedule sim ~at (fun () ->
             ignore (Server.inject server ~session ~size_bits:size))))
    script;
  Sim.run sim;
  List.rev !log

(* SCFQ's self-clock: a newly active session's stamps chain from the
   in-service packet's finish tag, so it cannot be starved forever. *)
let test_scfq_newly_active_session () =
  let script =
    List.init 20 (fun k -> (0.0, 0, 1.0) |> fun (_, s, z) -> (float_of_int k *. 0.0, s, z))
    @ [ (5.0, 1, 1.0) ]
  in
  let log = run_script ~factory:Hpfq.Disciplines.scfq ~rates:[ 0.5; 0.5 ] script in
  let d1 = List.assoc 1 (List.map (fun (s, t) -> (s, t)) (List.filter (fun (s, _) -> s = 1) log)) in
  (* session 1's lone packet must depart within a couple of packet times *)
  Alcotest.(check bool) "no starvation" true (d1 <= 8.0)

(* Virtual Clock punishes a session that over-sent in the past: after a
   burst beyond its rate, a competitor arriving later wins. *)
let test_virtual_clock_punishes_oversender () =
  let script =
    List.init 10 (fun _ -> (0.0, 0, 1.0)) @ [ (6.0, 1, 1.0) ]
  in
  let log = run_script ~factory:Hpfq.Disciplines.virtual_clock ~rates:[ 0.5; 0.5 ] script in
  (* session 0's stamps ran to 20 while real time is 6; session 1 stamps at
     max(6,0)+2=8 < remaining session-0 stamps -> jumps the queue *)
  let t1 = List.assoc 1 log in
  Alcotest.(check bool) "late arrival overtakes over-sender" true (t1 <= 8.0)

(* DRR distributes bytes, not packets: with equal rates but different
   packet sizes, byte totals stay close. *)
let test_drr_byte_fairness () =
  let sim = Sim.create () in
  (* quantum sized for the unit packets of this test *)
  let factory = Sched.Round_robin.drr ~frame_bits:8.0 () in
  let server =
    Server.create ~sim ~rate:1.0 ~policy:(factory.Sched.Sched_intf.make ~rate:1.0) ()
  in
  let a = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
  let b = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 400 do
           ignore (Server.inject server ~session:a ~size_bits:3.0)
         done;
         for _ = 1 to 1200 do
           ignore (Server.inject server ~session:b ~size_bits:1.0)
         done));
  Sim.run ~until:600.0 sim;
  let wa = Server.departed_bits server ~session:a in
  let wb = Server.departed_bits server ~session:b in
  Alcotest.(check bool)
    (Printf.sprintf "byte-fair split (a=%g b=%g)" wa wb)
    true
    (Float.abs (wa -. wb) <= 70.0)

(* WRR serves packet counts proportional to weights, so with unequal
   packet sizes it is byte-unfair — the known WRR failure mode. *)
let test_wrr_packet_bias () =
  let sim = Sim.create () in
  let factory = Hpfq.Disciplines.wrr in
  let server =
    Server.create ~sim ~rate:1.0 ~policy:(factory.Sched.Sched_intf.make ~rate:1.0) ()
  in
  let a = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
  let b = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 200 do
           ignore (Server.inject server ~session:a ~size_bits:4.0);
           ignore (Server.inject server ~session:b ~size_bits:1.0)
         done));
  Sim.run ~until:500.0 sim;
  let wa = Server.departed_bits server ~session:a in
  let wb = Server.departed_bits server ~session:b in
  Alcotest.(check bool)
    (Printf.sprintf "big packets win under WRR (a=%g b=%g)" wa wb)
    true
    (wa >= 3.0 *. wb)

(* FIFO is arrival-ordered regardless of rates. *)
let test_fifo_order () =
  let log =
    run_script ~factory:Hpfq.Disciplines.fifo ~rates:[ 0.9; 0.1 ]
      [ (0.0, 1, 1.0); (0.0, 0, 1.0); (0.0, 1, 1.0) ]
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "pure arrival order"
    [ (1, 1.0); (0, 2.0); (1, 3.0) ]
    log

(* SFF vs SEFF on the two-session burst pattern: WFQ lets the heavy session
   finish k packets by time k; WF2Q paces it at the GPS rate. *)
let test_sff_vs_seff_pacing () =
  let script = List.init 6 (fun _ -> (0.0, 0, 1.0)) @ [ (0.0, 1, 1.0) ] in
  let wfq = run_script ~factory:Hpfq.Disciplines.wfq ~rates:[ 0.5; 0.5 ] script in
  let wf2q = run_script ~factory:Hpfq.Disciplines.wf2q ~rates:[ 0.5; 0.5 ] script in
  let t_of session log = List.assoc session log in
  (* under WFQ session 1's single packet waits behind... session 0's first 2
     packets (F=2,4 vs F=2); under WF2Q it is served second *)
  Alcotest.(check bool) "WF2Q interleaves competitor earlier" true
    (t_of 1 wf2q <= t_of 1 wfq);
  Alcotest.check feq "WF2Q competitor at t=2" 2.0 (t_of 1 wf2q)

(* Idle sessions must not affect others (PFQ family): removing an idle
   session's registration changes nothing. *)
let test_idle_sessions_harmless () =
  List.iter
    (fun factory ->
      let with_idle =
        run_script ~factory ~rates:[ 0.25; 0.25; 0.5 ]
          [ (0.0, 0, 1.0); (0.0, 1, 1.0); (1.0, 0, 1.0) ]
      in
      let expected_work = 3.0 in
      let total = float_of_int (List.length with_idle) in
      Alcotest.check feq
        (factory.Sched.Sched_intf.kind ^ ": all served")
        expected_work total)
    Hpfq.Disciplines.pfq

(* Virtual time introspection is monotone across a busy period. *)
let test_virtual_time_monotone () =
  List.iter
    (fun factory ->
      let sim = Sim.create () in
      let policy = factory.Sched.Sched_intf.make ~rate:1.0 in
      let server = Server.create ~sim ~rate:1.0 ~policy () in
      let a = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
      let b = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
      let last = ref neg_infinity in
      let ok = ref true in
      for k = 0 to 20 do
        let at = float_of_int k *. 0.7 in
        ignore
          (Sim.schedule sim ~at (fun () ->
               ignore (Server.inject server ~session:(if k mod 2 = 0 then a else b) ~size_bits:1.0);
               let v = policy.Sched.Sched_intf.virtual_time ~now:(Sim.now sim) in
               if v < !last -. 1e-9 then ok := false;
               last := v))
      done;
      Sim.run sim;
      Alcotest.(check bool)
        (factory.Sched.Sched_intf.kind ^ ": virtual time monotone during busy period")
        true !ok)
    [ Hpfq.Disciplines.wf2q_plus; Hpfq.Disciplines.wfq; Hpfq.Disciplines.wf2q ]

let () =
  Alcotest.run "sched"
    [
      ( "policies",
        [
          Alcotest.test_case "SCFQ no starvation" `Quick test_scfq_newly_active_session;
          Alcotest.test_case "VirtualClock punishes over-sender" `Quick
            test_virtual_clock_punishes_oversender;
          Alcotest.test_case "DRR byte fairness" `Quick test_drr_byte_fairness;
          Alcotest.test_case "WRR packet bias" `Quick test_wrr_packet_bias;
          Alcotest.test_case "FIFO order" `Quick test_fifo_order;
          Alcotest.test_case "SFF vs SEFF pacing" `Quick test_sff_vs_seff_pacing;
          Alcotest.test_case "idle sessions harmless" `Quick test_idle_sessions_harmless;
          Alcotest.test_case "virtual time monotone" `Quick test_virtual_time_monotone;
        ] );
    ]
