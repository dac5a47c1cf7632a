(* H-PFQ hierarchical server: pseudocode faithfulness, bandwidth
   distribution (paper §2.2 example), and the WFI effect on delay (§3.1). *)

module Sim = Engine.Simulator
module Hier = Hpfq.Hier
module CT = Hpfq.Class_tree

let feq = Alcotest.float 1e-6

let wf2q_plus = Hpfq.Disciplines.wf2q_plus
let wfq = Hpfq.Disciplines.wfq

(* A flat hierarchy must behave exactly like the standalone server: same
   departure times for the same workload. *)
let test_flat_tree_equals_standalone () =
  let spec =
    CT.node "link" ~rate:1.0
      [ CT.leaf "a" ~rate:0.5; CT.leaf "b" ~rate:0.3; CT.leaf "c" ~rate:0.2 ]
  in
  let run_hier () =
    let sim = Sim.create () in
    let log = ref [] in
    let h =
      Hier.create ~sim ~spec ~make_policy:(Hier.uniform wf2q_plus)
        ~on_depart:(fun _ ~leaf t -> log := (leaf, t) :: !log)
        ()
    in
    let a = Hier.leaf_id h "a" and b = Hier.leaf_id h "b" and c = Hier.leaf_id h "c" in
    ignore
      (Sim.schedule sim ~at:0.0 (fun () ->
           for _ = 1 to 5 do
             ignore (Hier.inject h ~leaf:a ~size_bits:1.0);
             ignore (Hier.inject h ~leaf:b ~size_bits:1.0);
             ignore (Hier.inject h ~leaf:c ~size_bits:1.0)
           done));
    Sim.run sim;
    List.rev !log
  in
  let run_server () =
    let sim = Sim.create () in
    let log = ref [] in
    let names = [| "a"; "b"; "c" |] in
    let server =
      Hpfq.Server.create ~sim ~rate:1.0
        ~policy:(wf2q_plus.Sched.Sched_intf.make ~rate:1.0)
        ~on_depart:(fun pkt t -> log := (names.(pkt.Net.Packet.flow), t) :: !log)
        ()
    in
    let a = Sched.Session_handle.slot (Hpfq.Server.open_session server ~rate:0.5 ()) in
    let b = Sched.Session_handle.slot (Hpfq.Server.open_session server ~rate:0.3 ()) in
    let c = Sched.Session_handle.slot (Hpfq.Server.open_session server ~rate:0.2 ()) in
    ignore
      (Sim.schedule sim ~at:0.0 (fun () ->
           for _ = 1 to 5 do
             ignore (Hpfq.Server.inject server ~session:a ~size_bits:1.0);
             ignore (Hpfq.Server.inject server ~session:b ~size_bits:1.0);
             ignore (Hpfq.Server.inject server ~session:c ~size_bits:1.0)
           done));
    Sim.run sim;
    List.rev !log
  in
  let hier_log = run_hier () and server_log = run_server () in
  Alcotest.(check (list (pair string (float 1e-9))))
    "flat H-PFQ = standalone server" server_log hier_log

(* §2.2 example: root {A: 0.8 {A1: 0.75, A2: 0.05}, B: 0.2}. With A1 idle,
   A2 inherits all of A's share: W_A2 ~ 0.8t, W_B ~ 0.2t. *)
let section22_spec =
  CT.node "link" ~rate:1.0
    [
      CT.node "A" ~rate:0.8 [ CT.leaf "A1" ~rate:0.75; CT.leaf "A2" ~rate:0.05 ];
      CT.leaf "B" ~rate:0.2;
    ]

let test_excess_follows_hierarchy () =
  let sim = Sim.create () in
  let h = Hier.create ~sim ~spec:section22_spec ~make_policy:(Hier.uniform wf2q_plus) () in
  let a2 = Hier.leaf_id h "A2" and b = Hier.leaf_id h "B" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 200 do
           ignore (Hier.inject h ~leaf:a2 ~size_bits:1.0);
           ignore (Hier.inject h ~leaf:b ~size_bits:1.0)
         done));
  Sim.run ~until:100.0 sim;
  let w_a2 = Hier.departed_bits h ~node:"A2" and w_b = Hier.departed_bits h ~node:"B" in
  (* A1 idle: A2 receives A's whole 80% share, not 0.05/(0.05+0.2) of it *)
  Alcotest.(check bool) "A2 near 80" true (Float.abs (w_a2 -. 80.0) <= 2.0);
  Alcotest.(check bool) "B near 20" true (Float.abs (w_b -. 20.0) <= 2.0)

(* Same tree, A1 now also backlogged: shares revert to 75/5/20. *)
let test_shares_with_all_backlogged () =
  let sim = Sim.create () in
  let h = Hier.create ~sim ~spec:section22_spec ~make_policy:(Hier.uniform wf2q_plus) () in
  let a1 = Hier.leaf_id h "A1" and a2 = Hier.leaf_id h "A2" and b = Hier.leaf_id h "B" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 200 do
           ignore (Hier.inject h ~leaf:a1 ~size_bits:1.0);
           ignore (Hier.inject h ~leaf:a2 ~size_bits:1.0);
           ignore (Hier.inject h ~leaf:b ~size_bits:1.0)
         done));
  Sim.run ~until:100.0 sim;
  Alcotest.(check bool) "A1 ~75" true
    (Float.abs (Hier.departed_bits h ~node:"A1" -. 75.0) <= 2.0);
  Alcotest.(check bool) "A2 ~5" true
    (Float.abs (Hier.departed_bits h ~node:"A2" -. 5.0) <= 2.0);
  Alcotest.(check bool) "B ~20" true
    (Float.abs (Hier.departed_bits h ~node:"B" -. 20.0) <= 2.0);
  Alcotest.(check (float 2.0)) "A = A1+A2 ~80" 80.0 (Hier.departed_bits h ~node:"A")

(* The paper's motivating failure (§3.1): inside agency A1 (50%), a
   best-effort burst under H-WFQ makes the next real-time packet wait ~N
   packet times; under H-WF2Q+ it does not. *)
let burst_then_realtime make_policy =
  let spec =
    CT.node "link" ~rate:1.0
      (CT.node "A1" ~rate:0.5 [ CT.leaf "RT" ~rate:0.3; CT.leaf "BE" ~rate:0.2 ]
      :: List.init 10 (fun i -> CT.leaf (Printf.sprintf "bg%d" i) ~rate:0.05))
  in
  let sim = Sim.create () in
  let rt_delay = ref 0.0 in
  let h =
    Hier.create ~sim ~spec ~make_policy
      ~on_depart:(fun pkt ~leaf t ->
        if leaf = "RT" then rt_delay := t -. pkt.Net.Packet.arrival)
      ()
  in
  let be = Hier.leaf_id h "BE" and rt = Hier.leaf_id h "RT" in
  let bgs = List.init 10 (fun i -> Hier.leaf_id h (Printf.sprintf "bg%d" i)) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         (* BE bursts; background sessions keep their queues full *)
         for _ = 1 to 30 do
           ignore (Hier.inject h ~leaf:be ~size_bits:1.0)
         done;
         List.iter
           (fun bg ->
             for _ = 1 to 30 do
               ignore (Hier.inject h ~leaf:bg ~size_bits:1.0)
             done)
           bgs));
  (* Under H-WFQ, agency A1 runs ~10 packets ahead of its fluid schedule
     during [0,10] (BE's burst); the punishment phase follows, when A1 must
     wait for everyone else to catch up. A real-time packet arriving right
     then — to an EMPTY RT queue — inherits the agency's debt. *)
  ignore (Sim.schedule sim ~at:10.2 (fun () -> ignore (Hier.inject h ~leaf:rt ~size_bits:1.0)));
  Sim.run sim;
  !rt_delay

let test_wfi_effect_on_hierarchy_delay () =
  let d_hwfq = burst_then_realtime (Hier.uniform wfq) in
  let d_hwf2qp = burst_then_realtime (Hier.uniform wf2q_plus) in
  (* H-WF2Q+ delay bound for RT (Cor. 2): sigma/r_i + L/r_A1 + L/r_link
     = 1/0.3 + 1/0.5 + 1 = 6.33; H-WFQ should be noticeably worse *)
  Alcotest.(check bool)
    (Printf.sprintf "H-WF2Q+ within bound (%.3f)" d_hwf2qp)
    true
    (d_hwf2qp <= 6.34);
  Alcotest.(check bool)
    (Printf.sprintf "H-WFQ worse than H-WF2Q+ (%.3f vs %.3f)" d_hwfq d_hwf2qp)
    true
    (d_hwfq > d_hwf2qp +. 1.0)

(* Work conservation in a deep tree: the link never idles while any queue
   is backlogged, so total work = elapsed time during the busy period. *)
let test_hier_work_conserving () =
  let spec =
    CT.node "link" ~rate:1.0
      [
        CT.node "x" ~rate:0.6
          [ CT.node "x1" ~rate:0.4 [ CT.leaf "x1a" ~rate:0.2; CT.leaf "x1b" ~rate:0.2 ];
            CT.leaf "x2" ~rate:0.2 ];
        CT.leaf "y" ~rate:0.4;
      ]
  in
  let sim = Sim.create () in
  let h = Hier.create ~sim ~spec ~make_policy:(Hier.uniform wf2q_plus) () in
  let leaves = List.map snd (Hier.leaf_ids h) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         List.iter
           (fun leaf ->
             for _ = 1 to 25 do
               ignore (Hier.inject h ~leaf ~size_bits:1.0)
             done)
           leaves));
  Sim.run ~until:50.0 sim;
  Alcotest.check feq "100 bits in 100s... 50 bits by t=50" 50.0
    (Hier.departed_bits h ~node:"link")

(* Leaf drops honour queue capacity. *)
let test_hier_leaf_drops () =
  let spec =
    CT.node "link" ~rate:1.0
      [ CT.leaf "small" ~rate:0.5 ~queue_capacity_bits:2.5; CT.leaf "big" ~rate:0.5 ]
  in
  let sim = Sim.create () in
  let h = Hier.create ~sim ~spec ~make_policy:(Hier.uniform wf2q_plus) () in
  let small = Hier.leaf_id h "small" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 5 do
           ignore (Hier.inject h ~leaf:small ~size_bits:1.0)
         done));
  Sim.run sim;
  (* Per §4.2 the committed packet stays in the leaf queue until the link
     finishes it, so p1+p2 occupy the 2.5-bit queue and p3..p5 drop. *)
  Alcotest.(check int) "three drops" 3 (Hier.drops h)

let test_invalid_tree_rejected () =
  let bad = CT.node "link" ~rate:1.0 [ CT.leaf "a" ~rate:0.9; CT.leaf "b" ~rate:0.9 ] in
  Alcotest.(check bool) "overcommitted tree rejected" true
    (try
       let sim = Sim.create () in
       ignore (Hier.create ~sim ~spec:bad ~make_policy:(Hier.uniform wf2q_plus) ());
       false
     with Invalid_argument _ -> true)

(* A bare-leaf spec validates, but no hierarchy can be built on it: both
   engines refuse it through their shared index, with one message. *)
let test_leaf_root_rejected () =
  let spec = CT.leaf "solo" ~rate:1.0 in
  let error create =
    match create (Sim.create ()) with () -> None | exception Invalid_argument e -> Some e
  in
  let generic =
    error (fun sim -> ignore (Hier.create ~sim ~spec ~make_policy:(Hier.uniform wf2q_plus) ()))
  in
  let flat = error (fun sim -> ignore (Hpfq.Hier_flat.create ~sim ~spec ())) in
  Alcotest.(check (option string))
    "generic rejects it"
    (Some "Hier_tree.create: root \"solo\" is a leaf; the root must be an interior node")
    generic;
  Alcotest.(check (option string)) "flat raises the same error" generic flat

let test_leaf_lookup () =
  let sim = Sim.create () in
  let h = Hier.create ~sim ~spec:section22_spec ~make_policy:(Hier.uniform wf2q_plus) () in
  Alcotest.(check string) "leaf name roundtrip" "A2"
    (Hier.leaf_name h (Hier.leaf_id h "A2"));
  Alcotest.(check int) "three leaves" 3 (List.length (Hier.leaf_ids h));
  Alcotest.(check bool) "interior node is not a leaf" true
    (try
       ignore (Hier.leaf_id h "A");
       false
     with Invalid_argument msg ->
       (* the error must name the node and its kind *)
       let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       contains msg "\"A\"" && contains msg "interior");
  Alcotest.(check bool) "unknown name is Not_found" true
    (try
       ignore (Hier.leaf_id h "nope");
       false
     with Not_found -> true)

(* Mixed policies: WFQ at the root, WF2Q+ below — exercises heterogeneous
   composition. *)
let test_mixed_policies_run () =
  let make_policy ~level ~name:_ ~rate =
    if level = 0 then wfq.Sched.Sched_intf.make ~rate
    else wf2q_plus.Sched.Sched_intf.make ~rate
  in
  let sim = Sim.create () in
  let h = Hier.create ~sim ~spec:section22_spec ~make_policy () in
  let a2 = Hier.leaf_id h "A2" and b = Hier.leaf_id h "B" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 50 do
           ignore (Hier.inject h ~leaf:a2 ~size_bits:1.0);
           ignore (Hier.inject h ~leaf:b ~size_bits:1.0)
         done));
  Sim.run sim;
  Alcotest.check feq "everything served" 100.0 (Hier.departed_bits h ~node:"link")

(* Reference-time vs real-time root clock both serve everything. *)
let test_root_clock_modes () =
  List.iter
    (fun root_clock ->
      let sim = Sim.create () in
      let h =
        Hier.create ~sim ~spec:section22_spec ~make_policy:(Hier.uniform wf2q_plus)
          ~root_clock ()
      in
      let b = Hier.leaf_id h "B" in
      ignore (Sim.schedule sim ~at:0.0 (fun () -> ignore (Hier.inject h ~leaf:b ~size_bits:1.0)));
      ignore (Sim.schedule sim ~at:10.0 (fun () -> ignore (Hier.inject h ~leaf:b ~size_bits:1.0)));
      Sim.run sim;
      Alcotest.check feq "both served" 2.0 (Hier.departed_bits h ~node:"B"))
    [ `Real_time; `Reference_time ]

let () =
  Alcotest.run "hier"
    [
      ( "structure",
        [
          Alcotest.test_case "flat tree = standalone" `Quick test_flat_tree_equals_standalone;
          Alcotest.test_case "invalid tree rejected" `Quick test_invalid_tree_rejected;
          Alcotest.test_case "leaf root rejected" `Quick test_leaf_root_rejected;
          Alcotest.test_case "leaf lookup" `Quick test_leaf_lookup;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "excess follows hierarchy" `Quick test_excess_follows_hierarchy;
          Alcotest.test_case "all backlogged shares" `Quick test_shares_with_all_backlogged;
          Alcotest.test_case "work conserving" `Quick test_hier_work_conserving;
        ] );
      ( "delay",
        [
          Alcotest.test_case "WFI effect (H-WFQ vs H-WF2Q+)" `Quick
            test_wfi_effect_on_hierarchy_delay;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "leaf drops" `Quick test_hier_leaf_drops;
          Alcotest.test_case "mixed policies" `Quick test_mixed_policies_run;
          Alcotest.test_case "root clock modes" `Quick test_root_clock_modes;
        ] );
    ]
