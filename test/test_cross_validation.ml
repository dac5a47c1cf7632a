(* Cross-validation suites: independent implementations of the same
   mathematical objects must agree.

   1. Gps_clock (lazy virtual-time tracker used by WFQ/WF2Q) vs Fluid.Gps
      (event-driven fluid integrator): Property 1 — the relative finish
      order fixed by virtual stamps equals the fluid system's actual finish
      order.
   2. Hier (packet H-PFQ) vs Fluid.Hgps (ideal H-GPS): per-node cumulative
      service on saturated random trees differs by at most a few packets
      (the B-WFI promise, eq. 11). *)

module Q = QCheck
module Sim = Engine.Simulator
module CT = Hpfq.Class_tree

(* ---------- 1. Property 1: stamp order = fluid finish order ---------- *)

let arrivals_gen =
  let open Q.Gen in
  let* n = int_range 2 5 in
  let* packets =
    list_size (int_range 3 40)
      (let* session = int_range 0 (n - 1) in
       let* at = float_bound_inclusive 3.0 in
       let* size = float_range 0.2 2.0 in
       return (at, session, size))
  in
  return (n, packets)

let prop_property1 =
  Q.Test.make ~count:80 ~name:"Property 1: virtual finish order = fluid finish order"
    (Q.make arrivals_gen)
    (fun (n, packets) ->
      let rates = List.init n (fun _ -> 1.0 /. float_of_int n) in
      (* independent implementation A: lazy virtual-time tracker *)
      let clock = Sched.Gps_clock.create ~rate:1.0 in
      List.iter (fun r -> ignore (Sched.Gps_clock.add_session clock ~rate:r)) rates;
      (* independent implementation B: fluid integrator *)
      let finishes = Hashtbl.create 64 in
      let fluid =
        Fluid.Gps.create ~rate:1.0 ~session_rates:rates
          ~on_packet_finish:(fun pkt t ->
            Hashtbl.replace finishes (pkt.Net.Packet.flow, pkt.Net.Packet.seq) t)
          ()
      in
      let sorted = List.stable_sort compare packets in
      let seqs = Array.make n 0 in
      let stamped =
        List.map
          (fun (at, session, size) ->
            let epoch = Sched.Gps_clock.epoch clock ~now:at in
            let stamps = Sched.Stamp_queue.create () in
            Sched.Gps_clock.on_arrival clock ~now:at ~session ~size_bits:size stamps;
            let finish = Sched.Stamp_queue.peek_finish stamps in
            ignore (Fluid.Gps.arrive fluid ~at ~session ~size_bits:size);
            seqs.(session) <- seqs.(session) + 1;
            ((session, seqs.(session)), epoch, finish))
          sorted
      in
      Fluid.Gps.advance fluid ~to_:1000.0;
      (* within each epoch, sorting by virtual finish must equal sorting by
         fluid finish time (ties broken identically) *)
      let by_epoch = Hashtbl.create 8 in
      List.iter
        (fun (key, epoch, vf) ->
          let cur = Option.value (Hashtbl.find_opt by_epoch epoch) ~default:[] in
          Hashtbl.replace by_epoch epoch ((key, vf) :: cur))
        stamped;
      Hashtbl.fold
        (fun _epoch entries ok ->
          ok
          &&
          let virtual_order =
            List.stable_sort (fun (_, a) (_, b) -> compare a b) entries
            |> List.map fst
          in
          let fluid_order =
            List.stable_sort
              (fun (k1, _) (k2, _) ->
                compare (Hashtbl.find finishes k1) (Hashtbl.find finishes k2))
              entries
            |> List.map fst
          in
          (* allow permutations among (near-)simultaneous fluid finishers *)
          let rec agree vs fs =
            match (vs, fs) with
            | [], [] -> true
            | v :: vs', f :: fs' ->
              (v = f
               || Float.abs (Hashtbl.find finishes v -. Hashtbl.find finishes f) < 1e-9)
              && agree vs' fs'
            | _ -> false
          in
          agree virtual_order fluid_order)
        by_epoch true)

(* ---------- 2. H-WF2Q+ tracks fluid H-GPS per node ---------- *)

let tree_gen =
  let open Q.Gen in
  (* a random 3-level tree: root -> 2-3 groups -> 2-3 leaves each *)
  let* group_count = int_range 2 3 in
  let* groups =
    list_repeat group_count
      (let* leaf_count = int_range 2 3 in
       let* weights = list_repeat leaf_count (float_range 0.2 1.0) in
       let* group_weight = float_range 0.2 1.0 in
       return (group_weight, weights))
  in
  return groups

let build_tree groups =
  let total_group = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 groups in
  let leaves = ref [] in
  let nodes =
    List.mapi
      (fun gi (gw, weights) ->
        let group_rate = gw /. total_group in
        let total_leaf = List.fold_left ( +. ) 0.0 weights in
        let children =
          List.mapi
            (fun li w ->
              let name = Printf.sprintf "g%d-l%d" gi li in
              leaves := name :: !leaves;
              CT.leaf name ~rate:(group_rate *. w /. total_leaf))
            weights
        in
        CT.node (Printf.sprintf "g%d" gi) ~rate:group_rate children)
      groups
  in
  (CT.node "root" ~rate:1.0 nodes, List.rev !leaves)

let prop_hier_tracks_fluid =
  Q.Test.make ~count:40 ~name:"saturated H-WF2Q+ tracks H-GPS per node (B-WFI)"
    (Q.make tree_gen)
    (fun groups ->
      let spec, leaves = build_tree groups in
      let horizon = 200.0 in
      (* packet system: every leaf continuously backlogged with unit packets *)
      let sim = Sim.create () in
      let h =
        Hpfq.Hier.create ~sim ~spec
          ~make_policy:(Hpfq.Hier.uniform Hpfq.Disciplines.wf2q_plus) ()
      in
      List.iter
        (fun name ->
          let leaf = Hpfq.Hier.leaf_id h name in
          ignore
            (Sim.schedule sim ~at:0.0 (fun () ->
                 for _ = 1 to int_of_float horizon + 16 do
                   ignore (Hpfq.Hier.inject h ~leaf ~size_bits:1.0)
                 done)))
        leaves;
      Sim.run ~until:horizon sim;
      (* fluid system: same leaves persistent *)
      let fluid = Fluid.Hgps.create ~spec () in
      List.iter
        (fun name ->
          Fluid.Hgps.set_persistent fluid ~at:0.0 ~leaf:(Fluid.Hgps.leaf_id fluid name) true)
        leaves;
      Fluid.Hgps.advance fluid ~to_:horizon;
      (* every node's cumulative service within a few packets of fluid *)
      let tolerance = 4.0 (* packets; B-WFI of a 3-level tree with L=1 *) in
      let rec check node =
        let name = CT.name node in
        let packet_w = Hpfq.Hier.departed_bits h ~node:name in
        let fluid_w = Fluid.Hgps.served_bits fluid ~node:name in
        Float.abs (packet_w -. fluid_w) <= tolerance
        && List.for_all check (CT.children node)
      in
      check spec)

(* ---------- 3. Server vs Hier on shared one-level workload across all
   disciplines (spot equivalence beyond WF2Q+) ---------- *)

let prop_flat_equivalence_all_disciplines =
  let factories =
    [ Hpfq.Disciplines.wfq; Hpfq.Disciplines.scfq; Hpfq.Disciplines.virtual_clock ]
  in
  List.map
    (fun factory ->
      Q.Test.make ~count:25
        ~name:("flat Hier = Server for " ^ factory.Sched.Sched_intf.kind)
        (Q.make arrivals_gen)
        (fun (n, packets) ->
          let rates = List.init n (fun _ -> 1.0 /. float_of_int n) in
          let run_server () =
            let sim = Sim.create () in
            let log = ref [] in
            let server =
              Hpfq.Server.create ~sim ~rate:1.0
                ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
                ~on_depart:(fun p t -> log := (p.Net.Packet.flow, p.Net.Packet.seq, t) :: !log)
                ()
            in
            List.iter (fun r -> ignore (Hpfq.Server.open_session server ~rate:r ())) rates;
            List.iter
              (fun (at, s, z) ->
                ignore
                  (Sim.schedule sim ~at (fun () ->
                       ignore (Hpfq.Server.inject server ~session:s ~size_bits:z))))
              packets;
            Sim.run sim;
            List.rev !log
          in
          let run_hier () =
            let sim = Sim.create () in
            let log = ref [] in
            let spec =
              CT.node "link" ~rate:1.0
                (List.mapi (fun i r -> CT.leaf (string_of_int i) ~rate:r) rates)
            in
            let h =
              Hpfq.Hier.create ~sim ~spec ~make_policy:(Hpfq.Hier.uniform factory)
                ~on_depart:(fun p ~leaf t ->
                  log := (int_of_string leaf, p.Net.Packet.seq, t) :: !log)
                ()
            in
            let ids = Array.init n (fun i -> Hpfq.Hier.leaf_id h (string_of_int i)) in
            List.iter
              (fun (at, s, z) ->
                ignore
                  (Sim.schedule sim ~at (fun () ->
                       ignore (Hpfq.Hier.inject h ~leaf:ids.(s) ~size_bits:z))))
              packets;
            Sim.run sim;
            List.rev !log
          in
          run_server () = run_hier ()))
    factories

let suite =
  List.map QCheck_alcotest.to_alcotest
    ([ prop_property1; prop_hier_tracks_fluid ] @ prop_flat_equivalence_all_disciplines)

let () = Alcotest.run "cross_validation" [ ("qcheck", suite) ]
