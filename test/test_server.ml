(* Standalone one-level server: the paper's Fig. 2 worked example and basic
   server behaviours, across disciplines. *)

module Sim = Engine.Simulator
module Server = Hpfq.Server

let feq = Alcotest.float 1e-6

(* Fig. 2 setup: unit link, unit packets; session 0 has rate 0.5 and sends
   11 packets at t=0; sessions 1..10 have rate 0.05 and send 1 each. *)
let run_fig2 factory =
  let sim = Sim.create () in
  let departures = ref [] in
  let server =
    Server.create ~sim ~rate:1.0
      ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
      ~on_depart:(fun pkt time -> departures := (pkt.Net.Packet.flow, time) :: !departures)
      ()
  in
  let s1 = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
  let others = List.init 10 (fun _ ->
      Sched.Session_handle.slot (Server.open_session server ~rate:0.05 ())) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 11 do
           ignore (Server.inject server ~session:s1 ~size_bits:1.0)
         done;
         List.iter
           (fun s -> ignore (Server.inject server ~session:s ~size_bits:1.0))
           others));
  Sim.run sim;
  List.rev !departures

let session1_departure_times departures =
  List.filter_map (fun (flow, t) -> if flow = 0 then Some t else None) departures

let test_fig2_wfq () =
  let departures = run_fig2 Hpfq.Disciplines.wfq in
  Alcotest.(check int) "all packets served" 21 (List.length departures);
  (* WFQ bursts session 1: its first 10 packets depart back-to-back *)
  let first10 = List.filteri (fun i _ -> i < 10) departures in
  List.iter
    (fun (flow, _) -> Alcotest.(check int) "burst is session 1" 0 flow)
    first10;
  let s1_times = session1_departure_times departures in
  List.iteri
    (fun i t ->
      if i < 10 then Alcotest.check feq (Printf.sprintf "p1^%d at %d" (i + 1) (i + 1))
          (float_of_int (i + 1)) t)
    s1_times;
  (* the 11th packet waits for everyone else: departs last, at t=21 *)
  Alcotest.check feq "p1^11 last" 21.0 (List.nth s1_times 10)

let check_interleaved name departures =
  Alcotest.(check int) (name ^ ": all packets served") 21 (List.length departures);
  let s1_times = session1_departure_times departures in
  (* SEFF interleaves: session 1 departs at 1, 3, 5, ..., 19 then 21 — one
     packet every 2 time units, exactly the GPS pacing (paper Fig. 2). *)
  List.iteri
    (fun i t ->
      let expected = if i < 10 then (2.0 *. float_of_int i) +. 1.0 else 21.0 in
      Alcotest.check feq
        (Printf.sprintf "%s: p1^%d departure" name (i + 1))
        expected t)
    s1_times

let test_fig2_wf2q () = check_interleaved "WF2Q" (run_fig2 Hpfq.Disciplines.wf2q)
let test_fig2_wf2q_plus () = check_interleaved "WF2Q+" (run_fig2 Hpfq.Disciplines.wf2q_plus)

(* Work conservation: any discipline must keep the link busy while packets
   remain, so 21 unit packets injected at t=0 all depart by t=21. *)
let test_fig2_work_conserving_all () =
  List.iter
    (fun factory ->
      let departures = run_fig2 factory in
      let kind = factory.Sched.Sched_intf.kind in
      Alcotest.(check int) (kind ^ " serves all") 21 (List.length departures);
      let last = List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 departures in
      Alcotest.check feq (kind ^ " finishes at 21") 21.0 last)
    Hpfq.Disciplines.all

(* A 50% session served alongside a greedy competitor must get >= its
   guaranteed share over a long busy period, under every PFQ discipline. *)
let test_rate_guarantee () =
  List.iter
    (fun factory ->
      let sim = Sim.create () in
      let server =
        Server.create ~sim ~rate:1.0 ~policy:(factory.Sched.Sched_intf.make ~rate:1.0) ()
      in
      let a = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
      let b = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
      ignore
        (Sim.schedule sim ~at:0.0 (fun () ->
             for _ = 1 to 100 do
               ignore (Server.inject server ~session:a ~size_bits:1.0)
             done;
             for _ = 1 to 1000 do
               ignore (Server.inject server ~session:b ~size_bits:1.0)
             done));
      Sim.run ~until:100.0 sim;
      (* over [0,100] session a is continuously backlogged (100 packets at
         rate >= .5 takes <= 200s); it must have >= 0.5*100 - slack bits *)
      let served = Server.departed_bits server ~session:a in
      let kind = factory.Sched.Sched_intf.kind in
      if kind <> "FIFO" then
        Alcotest.(check bool)
          (kind ^ " honours guaranteed rate (got " ^ string_of_float served ^ ")")
          true
          (served >= 49.0))
    (List.filter
       (fun f -> f.Sched.Sched_intf.kind <> "FIFO")
       Hpfq.Disciplines.all)

(* Drop-tail accounting via the server. *)
let test_server_drops () =
  let sim = Sim.create () in
  let drops = ref 0 in
  let server =
    Server.create ~sim ~rate:1.0
      ~policy:(Hpfq.Disciplines.wf2q_plus.Sched.Sched_intf.make ~rate:1.0)
      ~on_drop:(fun _ _ -> incr drops)
      ()
  in
  let s =
    Sched.Session_handle.slot (Server.open_session server ~rate:1.0 ~queue_capacity_bits:3.5 ()) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 5 do
           ignore (Server.inject server ~session:s ~size_bits:1.0)
         done));
  Sim.run sim;
  (* capacity 3.5 bits: packets 1-3 fit; 4 and 5 dropped... but packet 1 is
     committed to the link immediately, freeing queue space only at t=1. At
     t=0 the fifo holds p1 (until selected, it is popped at selection) —
     selection happens during the first inject, so p1 leaves the fifo
     immediately and p2..p4 fit. Exactly one drop. *)
  Alcotest.(check int) "drop count" 1 !drops

(* A session index that was never opened is a named error, raised before
   any state changes: no packet is allocated, nothing departs. *)
let test_unknown_session () =
  let sim = Sim.create () in
  let departed = ref 0 in
  let server =
    Server.create ~sim ~rate:1.0
      ~policy:(Hpfq.Disciplines.wf2q_plus.Sched.Sched_intf.make ~rate:1.0)
      ~on_depart:(fun _ _ -> incr departed)
      ()
  in
  let s = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
  let named fn n f =
    Alcotest.check_raises
      (Printf.sprintf "%s on session %d" fn n)
      (Invalid_argument (Printf.sprintf "Server.%s: unknown session %d" fn n))
      (fun () -> ignore (f n))
  in
  List.iter
    (fun n ->
      named "inject" n (fun session -> Server.inject server ~session ~size_bits:1.0);
      named "inject_batch" n (fun session ->
          Server.inject_batch server ~session ~size_bits:1.0 ~count:2);
      named "queue_bits" n (fun session -> Server.queue_bits server ~session);
      named "departed_bits" n (fun session -> Server.departed_bits server ~session))
    [ s + 1; 7; -1 ];
  Alcotest.(check int) "no packet allocated" 0
    (Net.Packet_pool.live_count (Server.pool server));
  ignore (Server.inject server ~session:s ~size_bits:1.0);
  Sim.run sim;
  Alcotest.(check int) "the open session still serves" 1 !departed;
  Alcotest.check feq "its work counter" 1.0 (Server.departed_bits server ~session:s)

(* Empty-system idle periods: the server restarts cleanly after draining. *)
let test_idle_restart () =
  List.iter
    (fun factory ->
      let sim = Sim.create () in
      let departures = ref [] in
      let server =
        Server.create ~sim ~rate:1.0
          ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
          ~on_depart:(fun pkt t -> departures := (pkt.Net.Packet.flow, t) :: !departures)
          ()
      in
      let a = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
      let b = Sched.Session_handle.slot (Server.open_session server ~rate:0.5 ()) in
      ignore (Sim.schedule sim ~at:0.0 (fun () -> ignore (Server.inject server ~session:a ~size_bits:1.0)));
      ignore (Sim.schedule sim ~at:10.0 (fun () -> ignore (Server.inject server ~session:b ~size_bits:1.0)));
      Sim.run sim;
      let kind = factory.Sched.Sched_intf.kind in
      Alcotest.(check int) (kind ^ " both served") 2 (List.length !departures);
      match List.rev !departures with
      | [ (_, t1); (_, t2) ] ->
        Alcotest.check feq (kind ^ " first departure") 1.0 t1;
        Alcotest.check feq (kind ^ " second departure") 11.0 t2
      | _ -> Alcotest.fail "expected two departures")
    Hpfq.Disciplines.all

(* ---- the burst-drain contract on the one-level server ----

   A random scenario: sessions of random weights (some with small queues,
   so packets drop), batches of dyadic-size packets arriving on a half-unit
   grid (so arrivals often tie with departures at a unit-rate link),
   closed-loop re-injection from the depart hook, and `Drain/`Drop closes.
   The run stops at a horizon on the same grid, then drains. Every burst
   cap must replay burst 1 exactly: departure and drop logs, and each
   session's departed bits. *)

type burst_scenario = {
  rates : float array;
  caps : float option array;
  arrivals : (float * int * float * int) list; (* time, session, bits, count *)
  closes : (float * int * Sched.Sched_intf.close_policy) list;
  horizon : float;
}

let burst_sizes = [| 0.5; 1.0; 1.5; 2.0 |]

let burst_scenario seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let grid n = float_of_int (int n) *. 0.5 in
  let n = 2 + int 5 in
  let weights = Array.init n (fun _ -> float_of_int (1 + int 4)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  {
    rates = Array.map (fun w -> w /. total) weights;
    caps = Array.init n (fun _ -> if int 3 = 0 then Some (float_of_int (2 + int 6)) else None);
    arrivals =
      List.init (10 + int 30) (fun _ -> (grid 40, int n, burst_sizes.(int 4), 1 + int 4));
    closes =
      List.init (int 3) (fun _ -> (grid 40, int n, if int 2 = 0 then `Drain else `Drop));
    horizon = grid 20;
  }

(* The GPS-exact disciplines may reject a `Drop of a backlogged session
   (see test_lifecycle); their scenarios close with `Drain instead. *)
let drops_backlogged factory =
  let p = factory.Sched.Sched_intf.make ~rate:1.0 in
  let h = p.Sched.Sched_intf.open_session ~rate:0.5 in
  let session = p.Sched.Sched_intf.session_of_handle h in
  p.Sched.Sched_intf.arrive ~now:0.0 ~session ~size_bits:1.0;
  p.Sched.Sched_intf.backlog ~now:0.0 ~session ~head_bits:1.0;
  match p.Sched.Sched_intf.close_session ~now:0.0 ~policy:`Drop h with
  | () -> true
  | exception Invalid_argument _ -> false

let run_burst factory sc burst_max =
  let drop_ok = drops_backlogged factory in
  let sim = Sim.create () in
  let departs = ref [] and drops = ref [] in
  let server =
    Server.create ~sim ~rate:1.0 ~burst_max
      ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
      ()
  in
  let n = Array.length sc.rates in
  let handles =
    Array.init n (fun i ->
        Server.open_session server ~rate:sc.rates.(i) ?queue_capacity_bits:sc.caps.(i) ())
  in
  let slot i = Sched.Session_handle.slot handles.(i) in
  let closed = Array.make n false in
  (* Pool conservation: every live handle is queued, on the wire, or one
     of [extra] handles in hand — the departing packet inside a departure
     hook, the dropped one inside a drop hook. *)
  let conserved where ~extra =
    let live = Net.Packet_pool.live_count (Server.pool server)
    and held = Server.queued_packets server + Bool.to_int (Server.busy server) + extra in
    if live <> held then
      QCheck.Test.fail_reportf "%s: %d packet handles live %s, %d held"
        factory.Sched.Sched_intf.kind live where held
  in
  (* What the test is doing when a drop hook runs: one of its scheduled
     ops, a follow-up inject inside a departure hook (the departing packet
     is in hand too), or neither: then [complete] is finishing a `Drop
     close deferred behind the wire packet, and it frees the departed
     packet only after the drops and the departure hooks. *)
  let doing = ref `Completion in
  let while_ what f =
    doing := what;
    f ();
    doing := `Completion
  in
  let inject i bits count =
    if not closed.(i) then
      if count = 1 then ignore (Server.inject server ~session:(slot i) ~size_bits:bits)
      else Server.inject_batch server ~session:(slot i) ~size_bits:bits ~count
  in
  (* the check runs before the boxed hook reads the handle *)
  Server.add_drop_handle_hook server (fun _ _ ->
      conserved "at a drop"
        ~extra:(match !doing with `Op -> 1 | `Departure | `Completion -> 2));
  Server.add_drop_hook server (fun p t ->
      drops := (p.Net.Packet.flow, p.Net.Packet.seq, t) :: !drops);
  (* closed loop: some departures inject a follow-up into the next session *)
  Server.add_depart_hook server (fun p t ->
      conserved "at a departure" ~extra:1;
      let flow = p.Net.Packet.flow and seq = p.Net.Packet.seq in
      departs := (flow, seq, t) :: !departs;
      if (flow + seq) mod 3 = 0 && seq < 30 then
        while_ `Departure (fun () -> inject ((flow + 1) mod n) burst_sizes.(seq mod 4) 1));
  List.iter
    (fun (at, i, bits, count) ->
      ignore
        (Sim.schedule sim ~at (fun () ->
             while_ `Op (fun () -> inject i bits count);
             conserved "after an inject" ~extra:0)))
    sc.arrivals;
  List.iter
    (fun (at, i, policy) ->
      ignore
        (Sim.schedule sim ~at (fun () ->
             if not closed.(i) then begin
               closed.(i) <- true;
               let policy = if drop_ok then policy else `Drain in
               while_ `Op (fun () -> Server.close_session server ~policy handles.(i))
             end;
             conserved "after a close" ~extra:0)))
    sc.closes;
  Sim.run ~until:sc.horizon sim;
  Sim.run sim;
  let outcome =
    ( List.rev !departs,
      List.rev !drops,
      List.init n (fun i -> Server.departed_bits server ~session:(slot i)) )
  in
  (outcome, Sim.events_processed sim)

let test_burst_drain_invariance () =
  let fewer_events = ref 0 in
  let prop seed =
    let sc = burst_scenario seed in
    List.for_all
      (fun factory ->
        let reference, events1 = run_burst factory sc 1 in
        List.for_all
          (fun burst ->
            let outcome, events = run_burst factory sc burst in
            if events < events1 then incr fewer_events;
            if outcome <> reference then
              QCheck.Test.fail_reportf "%s: burst_max %d departs or drops differently than 1"
                factory.Sched.Sched_intf.kind burst;
            if events > events1 then
              QCheck.Test.fail_reportf "%s: burst_max %d fired more events than 1"
                factory.Sched.Sched_intf.kind burst;
            true)
          [ 2; 8; 64; max_int ])
      Hpfq.Disciplines.all
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 0xb57; 20 |])
    (QCheck.Test.make ~count:60 ~name:"server burst_max replays burst 1"
       QCheck.(int_bound 1_000_000)
       prop);
  (* the inline path must actually run, or the property proves nothing *)
  Alcotest.(check bool) "some bursts drained inline" true (!fewer_events > 0)

(* A count pin for the inline drain, which the equivalence property above
   cannot see: a drain that inlines fewer departures than its cap still
   replays burst 1 exactly. On a saturated one-level server (every session
   backlogged, each departure re-injecting into its own session, nothing
   else pending) no pending event and no horizon stops a drain, so burst
   64 must fire at most ceil(N/64) + 2 link events for N departures, and
   burst 1 exactly N. *)
let test_burst_event_count () =
  let departures = 4096 and sessions = 8 in
  let run burst_max =
    let sim = Sim.create () in
    let server =
      Server.create ~sim ~rate:1.0 ~burst_max
        ~policy:(Hpfq.Disciplines.wf2q_plus.Sched.Sched_intf.make ~rate:1.0)
        ()
    in
    let slots =
      Array.init sessions (fun _ ->
          Sched.Session_handle.slot
            (Server.open_session server ~rate:(1.0 /. float_of_int sessions) ()))
    in
    let injected = ref 0 and departed = ref 0 in
    let inject i =
      incr injected;
      ignore (Server.inject server ~session:slots.(i) ~size_bits:1.0)
    in
    Server.add_depart_hook server (fun p _ ->
        incr departed;
        if !injected < departures then inject p.Net.Packet.flow);
    for i = 0 to (2 * sessions) - 1 do
      inject (i mod sessions)
    done;
    Sim.run sim;
    Alcotest.(check int) (Printf.sprintf "burst %d: every packet departed" burst_max)
      departures !departed;
    Sim.events_processed sim
  in
  Alcotest.(check int) "burst 1 fires one link event per departure" departures (run 1);
  let bound = ((departures + 63) / 64) + 2 in
  let events = run 64 in
  if events > bound then
    Alcotest.failf "burst 64 fired %d link events for %d departures (at most %d)" events
      departures bound

let () =
  Alcotest.run "server"
    [
      ( "fig2",
        [
          Alcotest.test_case "WFQ bursts" `Quick test_fig2_wfq;
          Alcotest.test_case "WF2Q interleaves" `Quick test_fig2_wf2q;
          Alcotest.test_case "WF2Q+ interleaves" `Quick test_fig2_wf2q_plus;
          Alcotest.test_case "all disciplines work-conserving" `Quick
            test_fig2_work_conserving_all;
        ] );
      ( "server",
        [
          Alcotest.test_case "rate guarantee" `Quick test_rate_guarantee;
          Alcotest.test_case "drop accounting" `Quick test_server_drops;
          Alcotest.test_case "idle restart" `Quick test_idle_restart;
          Alcotest.test_case "unknown session is a named error" `Quick test_unknown_session;
          Alcotest.test_case "burst drain = per-packet, every discipline" `Quick
            test_burst_drain_invariance;
          Alcotest.test_case "saturated burst 64 fires ceil(N/64) + 2 events" `Quick
            test_burst_event_count;
        ] );
    ]
