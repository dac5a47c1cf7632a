(* Exact GPS virtual-time tracker against hand-computed fluid scenarios. *)

module G = Sched.Gps_clock

let feq = Alcotest.float 1e-9

(* [G.on_arrival] pushes the packet's (S, F) onto a stamp queue; read
   them back as a pair. *)
let arrive g ~now ~session ~size_bits =
  let q = Sched.Stamp_queue.create () in
  G.on_arrival g ~now ~session ~size_bits q;
  (Sched.Stamp_queue.peek_start q, Sched.Stamp_queue.peek_finish q)

(* Two equal-rate sessions, both arrive at t=0 with unit packets on a
   unit-rate server: V slope 1 while both backlogged. *)
let test_two_equal_sessions () =
  let g = G.create ~rate:1.0 in
  let s0 = G.add_session g ~rate:0.5 and s1 = G.add_session g ~rate:0.5 in
  let st0, f0 = arrive g ~now:0.0 ~session:s0 ~size_bits:1.0 in
  let st1, f1 = arrive g ~now:0.0 ~session:s1 ~size_bits:1.0 in
  Alcotest.check feq "s0 start" 0.0 st0;
  Alcotest.check feq "s0 finish" 2.0 f0;
  Alcotest.check feq "s1 start" 0.0 st1;
  Alcotest.check feq "s1 finish" 2.0 f1;
  (* both backlogged: sum of shares = 1, slope 1 *)
  Alcotest.check feq "V(1)" 1.0 (G.virtual_time g ~now:1.0);
  (* both retire at V=2 (t=2); fluid empty -> V resets *)
  Alcotest.check feq "V resets after drain" 0.0 (G.virtual_time g ~now:3.0);
  Alcotest.(check int) "epoch advanced" 1 (G.epoch g ~now:3.0)

(* One of two sessions backlogged: it gets the whole link, so V advances at
   rate r/r_1 = 2. *)
let test_single_backlogged_slope () =
  let g = G.create ~rate:1.0 in
  let s0 = G.add_session g ~rate:0.5 and _s1 = G.add_session g ~rate:0.5 in
  let _ = arrive g ~now:0.0 ~session:s0 ~size_bits:4.0 in
  (* virtual span = 4/0.5 = 8; real drain time = 4/1 = 4; slope 2 *)
  Alcotest.check feq "V(1) with lone session" 2.0 (G.virtual_time g ~now:1.0);
  Alcotest.(check bool) "still backlogged" true (G.gps_backlogged g ~now:3.9 ~session:s0);
  Alcotest.(check bool) "drained" false (G.gps_backlogged g ~now:4.1 ~session:s0)

(* The Fig. 2 scenario's fluid side: session 1 (rate .5) keeps the fluid
   system busy to t=21. *)
let test_fig2_fluid_departures () =
  let g = G.create ~rate:1.0 in
  let s1 = G.add_session g ~rate:0.5 in
  let others = List.init 10 (fun _ -> G.add_session g ~rate:0.05) in
  for _ = 1 to 11 do
    ignore (arrive g ~now:0.0 ~session:s1 ~size_bits:1.0)
  done;
  List.iter (fun s -> ignore (arrive g ~now:0.0 ~session:s ~size_bits:1.0)) others;
  (* All backlogged, slope 1. Others' virtual finish = 1/0.05 = 20, reached
     at t=20; session 1's last virtual finish = 22, reached at t=21 (slope
     doubles once alone). *)
  Alcotest.(check bool) "busy at 20.9" true (G.busy g ~now:20.9);
  Alcotest.check feq "V just before drain" 21.8 (G.virtual_time g ~now:20.9);
  Alcotest.(check bool) "empty at 21.1" false (G.busy g ~now:21.1)

(* Stamps within a session chain: F_{k-1} carries into S_k (eq. 6). *)
let test_stamp_chaining () =
  let g = G.create ~rate:1.0 in
  let s = G.add_session g ~rate:0.25 and s' = G.add_session g ~rate:0.75 in
  let _ = arrive g ~now:0.0 ~session:s' ~size_bits:100.0 in
  let st1, f1 = arrive g ~now:0.0 ~session:s ~size_bits:1.0 in
  let st2, f2 = arrive g ~now:0.0 ~session:s ~size_bits:1.0 in
  Alcotest.check feq "S1" 0.0 st1;
  Alcotest.check feq "F1 = L/r_i" 4.0 f1;
  Alcotest.check feq "S2 = F1" 4.0 st2;
  Alcotest.check feq "F2" 8.0 f2

(* A late arrival during a busy period stamps S = V(a) > 0. *)
let test_late_arrival_uses_v () =
  let g = G.create ~rate:1.0 in
  let s0 = G.add_session g ~rate:0.5 and s1 = G.add_session g ~rate:0.5 in
  let _ = arrive g ~now:0.0 ~session:s0 ~size_bits:10.0 in
  (* alone: slope 2, so V(2) = 4 *)
  let st, _f = arrive g ~now:2.0 ~session:s1 ~size_bits:1.0 in
  Alcotest.check feq "late S = V(a)" 4.0 st

(* After the system drains, old finish tags must not leak into the next
   busy period (epoch reset). *)
let test_epoch_reset_clears_tags () =
  let g = G.create ~rate:1.0 in
  let s0 = G.add_session g ~rate:1.0 in
  let _ = arrive g ~now:0.0 ~session:s0 ~size_bits:5.0 in
  Alcotest.check feq "V mid-burst" 3.0 (G.virtual_time g ~now:3.0);
  let st, f = arrive g ~now:100.0 ~session:s0 ~size_bits:5.0 in
  Alcotest.check feq "fresh busy period starts at V=0" 0.0 st;
  Alcotest.check feq "fresh finish" 5.0 f

let () =
  Alcotest.run "gps_clock"
    [
      ( "fluid",
        [
          Alcotest.test_case "two equal sessions" `Quick test_two_equal_sessions;
          Alcotest.test_case "single-backlogged slope" `Quick test_single_backlogged_slope;
          Alcotest.test_case "fig2 fluid departures" `Quick test_fig2_fluid_departures;
          Alcotest.test_case "stamp chaining" `Quick test_stamp_chaining;
          Alcotest.test_case "late arrival uses V" `Quick test_late_arrival_uses_v;
          Alcotest.test_case "epoch reset" `Quick test_epoch_reset_clears_tags;
        ] );
    ]
