(* API corners not covered elsewhere: introspection counters, pretty
   printers, growable vectors, fluid instantaneous rates. *)

let test_simulator_counters () =
  let sim = Engine.Simulator.create () in
  for i = 1 to 5 do
    ignore (Engine.Simulator.schedule sim ~at:(float_of_int i) ignore)
  done;
  Alcotest.(check int) "pending" 5 (Engine.Simulator.pending sim);
  Alcotest.(check bool) "step" true (Engine.Simulator.step sim);
  Alcotest.(check int) "fired" 1 (Engine.Simulator.events_processed sim);
  Engine.Simulator.run sim;
  Alcotest.(check int) "all fired" 5 (Engine.Simulator.events_processed sim);
  Alcotest.(check bool) "no more steps" false (Engine.Simulator.step sim)

let test_units_pp () =
  let time = Format.asprintf "%a" Engine.Units.pp_time 0.0025 in
  Alcotest.(check string) "ms rendering" "2.5 ms" time;
  let rate = Format.asprintf "%a" Engine.Units.pp_rate 44.44e6 in
  Alcotest.(check string) "Mbps rendering" "44.44 Mbps" rate;
  let micro = Format.asprintf "%a" Engine.Units.pp_time 1.5e-5 in
  Alcotest.(check string) "us rendering" "15 us" micro

let test_vec () =
  let v = Sched.Vec.create () in
  Alcotest.(check int) "push returns index" 0 (Sched.Vec.push v "a");
  Alcotest.(check int) "second index" 1 (Sched.Vec.push v "b");
  Sched.Vec.set v 0 "z";
  Alcotest.(check string) "get after set" "z" (Sched.Vec.get v 0);
  Alcotest.(check int) "length" 2 (Sched.Vec.length v);
  let acc = Sched.Vec.fold_left (fun acc x -> acc ^ x) "" v in
  Alcotest.(check string) "fold order" "zb" acc;
  Alcotest.(check bool) "bounds checked" true
    (try
       ignore (Sched.Vec.get v 5);
       false
     with Invalid_argument _ -> true)

let test_hgps_current_rate () =
  let spec =
    Hpfq.Class_tree.node "root" ~rate:1.0
      [ Hpfq.Class_tree.leaf "a" ~rate:0.3; Hpfq.Class_tree.leaf "b" ~rate:0.7 ]
  in
  let fluid = Fluid.Hgps.create ~spec () in
  Alcotest.(check (float 1e-9)) "idle rate" 0.0 (Fluid.Hgps.current_rate fluid ~node:"a");
  let a = Fluid.Hgps.leaf_id fluid "a" in
  Fluid.Hgps.set_persistent fluid ~at:0.0 ~leaf:a true;
  Alcotest.(check (float 1e-9)) "lone leaf takes the link" 1.0
    (Fluid.Hgps.current_rate fluid ~node:"a");
  let b = Fluid.Hgps.leaf_id fluid "b" in
  Fluid.Hgps.set_persistent fluid ~at:1.0 ~leaf:b true;
  Alcotest.(check (float 1e-9)) "now split 30/70" 0.3
    (Fluid.Hgps.current_rate fluid ~node:"a");
  Alcotest.(check bool) "busy" true (Fluid.Hgps.busy fluid)

let test_heap_aux_operations () =
  let ih = Prioq.Indexed_heap.create 4 in
  Prioq.Indexed_heap.add ih ~key:1 ~prio:2.0;
  Prioq.Indexed_heap.add_or_update ih ~key:1 ~prio:1.0;
  Prioq.Indexed_heap.add_or_update ih ~key:2 ~prio:3.0;
  Alcotest.(check (option (float 1e-9))) "prio_of" (Some 1.0)
    (Prioq.Indexed_heap.prio_of ih 1);
  let visited = ref [] in
  Prioq.Indexed_heap.iter (fun k p -> visited := (k, p) :: !visited) ih;
  Alcotest.(check int) "iter count" 2 (List.length !visited);
  Prioq.Indexed_heap.clear ih;
  Alcotest.(check bool) "cleared" true (Prioq.Indexed_heap.is_empty ih);
  Alcotest.(check bool) "invariant after clear" true (Prioq.Indexed_heap.check_invariant ih)

let test_packet_pp_and_reset () =
  Net.Packet.reset_uid_counter ();
  let p = Net.Packet.make ~flow:3 ~seq:7 ~size_bits:100.0 ~arrival:1.5 () in
  Alcotest.(check int) "uid restarts" 1 p.Net.Packet.uid;
  let rendered = Format.asprintf "%a" Net.Packet.pp p in
  Alcotest.(check string) "pp" "p_3^7(100b@1.5)" rendered

let test_disciplines_find () =
  Alcotest.(check bool) "find case-insensitive" true
    (Hpfq.Disciplines.find "wf2q+" <> None);
  Alcotest.(check bool) "find WFQ" true (Hpfq.Disciplines.find "WFQ" <> None);
  Alcotest.(check bool) "unknown" true (Hpfq.Disciplines.find "cbq" = None);
  Alcotest.(check int) "registry size" 11 (List.length Hpfq.Disciplines.all)

let () =
  Alcotest.run "misc"
    [
      ( "api",
        [
          Alcotest.test_case "simulator counters" `Quick test_simulator_counters;
          Alcotest.test_case "units pp" `Quick test_units_pp;
          Alcotest.test_case "vec" `Quick test_vec;
          Alcotest.test_case "hgps current rate" `Quick test_hgps_current_rate;
          Alcotest.test_case "heap aux ops" `Quick test_heap_aux_operations;
          Alcotest.test_case "packet pp" `Quick test_packet_pp_and_reset;
          Alcotest.test_case "disciplines registry" `Quick test_disciplines_find;
        ] );
    ]
