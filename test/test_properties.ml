(* Property-based tests (qcheck): invariants that must hold on randomized
   workloads, trees, and operation sequences. *)

module Sim = Engine.Simulator
module Server = Hpfq.Server
module Hier = Hpfq.Hier
module CT = Hpfq.Class_tree
module Q = QCheck

(* ---------- generators ---------- *)

(* a workload: per-session packet arrival times/sizes over [0, 10) *)
let workload_gen ~max_sessions =
  let open Q.Gen in
  let* n = int_range 2 max_sessions in
  let* packets =
    list_size (int_range 1 60)
      (let* session = int_range 0 (n - 1) in
       let* at = float_bound_inclusive 10.0 in
       let* size = float_range 0.1 2.0 in
       return (at, session, size))
  in
  return (n, packets)

let workload_arb ~max_sessions =
  Q.make ~print:(fun (n, ps) ->
      Printf.sprintf "n=%d packets=[%s]" n
        (String.concat "; "
           (List.map (fun (t, s, z) -> Printf.sprintf "(%.3f,%d,%.3f)" t s z) ps)))
    (workload_gen ~max_sessions)

let equal_rates n = List.init n (fun _ -> 1.0 /. float_of_int n)

let run_workload factory (n, packets) =
  let sim = Sim.create () in
  let departures = ref [] in
  let server =
    Server.create ~sim ~rate:1.0
      ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
      ~on_depart:(fun pkt t -> departures := (pkt, t) :: !departures)
      ()
  in
  List.iter (fun r -> ignore (Server.open_session server ~rate:r ())) (equal_rates n);
  List.iter
    (fun (at, session, size) ->
      ignore
        (Sim.schedule sim ~at (fun () ->
             ignore (Server.inject server ~session ~size_bits:size))))
    packets;
  Sim.run sim;
  (List.rev !departures, server)

(* ---------- properties ---------- *)

(* 1. Completeness: every injected packet departs, exactly once. *)
let prop_all_packets_depart factory =
  Q.Test.make ~count:60
    ~name:(factory.Sched.Sched_intf.kind ^ ": every packet departs once")
    (workload_arb ~max_sessions:5)
    (fun ((_, packets) as w) ->
      let departures, _ = run_workload factory w in
      let uids = List.map (fun (p, _) -> p.Net.Packet.uid) departures in
      List.length departures = List.length packets
      && List.length (List.sort_uniq compare uids) = List.length uids)

(* 2. Per-session FIFO: departures of one session keep arrival order. *)
let prop_session_fifo factory =
  Q.Test.make ~count:60
    ~name:(factory.Sched.Sched_intf.kind ^ ": per-session FIFO order")
    (workload_arb ~max_sessions:5)
    (fun w ->
      let departures, _ = run_workload factory w in
      let last_seq = Hashtbl.create 8 in
      List.for_all
        (fun (p, _) ->
          let prev = Option.value (Hashtbl.find_opt last_seq p.Net.Packet.flow) ~default:0 in
          Hashtbl.replace last_seq p.Net.Packet.flow p.Net.Packet.seq;
          p.Net.Packet.seq > prev)
        departures)

(* 3. Work conservation: the link is busy whenever packets are queued, so
   each departure happens no later than (previous idle point + backlog). We
   check the aggregate form: sum of served bits at any departure equals
   link work with no internal idling (departure spacing >= transmission
   time, and total time = total bits when the system never drains). *)
let prop_work_conserving factory =
  Q.Test.make ~count:60
    ~name:(factory.Sched.Sched_intf.kind ^ ": no idling while backlogged")
    (workload_arb ~max_sessions:5)
    (fun w ->
      let departures, _ = run_workload factory w in
      (* replay: compute the earliest feasible finish of the last packet by
         simulating a single work-conserving queue over all arrivals *)
      let (_, packets) = w in
      let arrivals = List.sort compare (List.map (fun (t, _, z) -> (t, z)) packets) in
      let horizon_work =
        List.fold_left (fun clock (t, z) -> Float.max clock t +. z) 0.0 arrivals
      in
      match List.rev departures with
      | [] -> List.length packets = 0
      | (_, last) :: _ -> Float.abs (last -. horizon_work) < 1e-6)

(* 4. Bandwidth guarantee (B-WFI form): a continuously backlogged session
   receives at least r_i * T - alpha bits under WF2Q+. *)
let prop_wf2q_plus_bandwidth_guarantee =
  Q.Test.make ~count:60 ~name:"WF2Q+: backlogged session gets r_i*T - alpha"
    Q.(pair (Q.make (Q.Gen.int_range 1 8)) (Q.make (Q.Gen.float_range 0.1 0.9)))
    (fun (n_bg, r0) ->
      let sim = Sim.create () in
      let server =
        Server.create ~sim ~rate:1.0 ~policy:(Hpfq.Disciplines.wf2q_plus.make ~rate:1.0) ()
      in
      let s0 = Sched.Session_handle.slot (Server.open_session server ~rate:r0 ()) in
      let bg_rate = (1.0 -. r0) /. float_of_int n_bg in
      let bgs = List.init n_bg (fun _ ->
          Sched.Session_handle.slot (Server.open_session server ~rate:bg_rate ())) in
      ignore
        (Sim.schedule sim ~at:0.0 (fun () ->
             for _ = 1 to 100 do
               ignore (Server.inject server ~session:s0 ~size_bits:1.0)
             done;
             List.iter
               (fun s ->
                 for _ = 1 to 100 do
                   ignore (Server.inject server ~session:s ~size_bits:1.0)
                 done)
               bgs));
      let horizon = 50.0 in
      Sim.run ~until:horizon sim;
      (* session 0 still backlogged at t=50? it is if r0*50 < 100 *)
      if r0 *. horizon < 99.0 then begin
        let alpha = Hpfq.Theory.bwfi_wf2q ~l_i_max:1.0 ~l_max:1.0 ~r_i:r0 ~r:1.0 in
        Server.departed_bits server ~session:s0 >= (r0 *. horizon) -. alpha -. 1e-6
      end
      else Q.assume_fail ())

(* 5. Flat hierarchy == standalone server, for random workloads. *)
let prop_flat_hier_equals_server =
  Q.Test.make ~count:40 ~name:"flat H-WF2Q+ = standalone WF2Q+ server"
    (workload_arb ~max_sessions:4)
    (fun ((n, packets) as w) ->
      let server_log =
        let departures, _ = run_workload Hpfq.Disciplines.wf2q_plus w in
        List.map (fun (p, t) -> (p.Net.Packet.flow, p.Net.Packet.seq, t)) departures
      in
      let hier_log =
        let sim = Sim.create () in
        let log = ref [] in
        let spec =
          CT.node "link" ~rate:1.0
            (List.mapi
               (fun i r -> CT.leaf (Printf.sprintf "s%d" i) ~rate:r)
               (equal_rates n))
        in
        let h =
          Hier.create ~sim ~spec
            ~make_policy:(Hier.uniform Hpfq.Disciplines.wf2q_plus)
            ~on_depart:(fun pkt ~leaf:_ t -> log := (pkt, t) :: !log)
            ()
        in
        let ids = Array.init n (fun i -> Hier.leaf_id h (Printf.sprintf "s%d" i)) in
        let leaf_to_session = Hashtbl.create 8 in
        Array.iteri
          (fun session (leaf : Hier.leaf) ->
            Hashtbl.replace leaf_to_session (leaf :> int) session)
          ids;
        List.iter
          (fun (at, session, size) ->
            ignore
              (Sim.schedule sim ~at (fun () ->
                   ignore (Hier.inject h ~leaf:ids.(session) ~size_bits:size))))
          packets;
        Sim.run sim;
        List.rev_map
          (fun (p, t) ->
            (Hashtbl.find leaf_to_session p.Net.Packet.flow, p.Net.Packet.seq, t))
          !log
      in
      List.length server_log = List.length hier_log
      && List.for_all2
           (fun (f1, s1, t1) (f2, s2, t2) ->
             f1 = f2 && s1 = s2 && Float.abs (t1 -. t2) < 1e-9)
           server_log hier_log)

(* 5b. Per-session stamping (eqs. 28-29) vs per-packet stamping (eqs. 6-7):
   the two are NOT packet-for-packet identical. When a packet reaches the
   head of a still-backlogged queue, per-packet stamping froze its start tag
   at S = max(F_prev, V(arrival)) back when it arrived, while per-session
   stamping computes S = F_prev at requeue time; whenever eq. 27's min-S
   jump drove V past F_prev in between, the two assign different tags and
   SEFF's argmin-F can transpose the service order. One transposition per
   competing session can accumulate before the orders reconcile, so a
   packet's departure may shift by up to (N-1) max-size transmissions —
   NOT just one. (An earlier version of this test asserted a 1*l_max
   tolerance and failed on ~2/25 seeds; replaying 6000 random workloads
   found true divergences up to 4.18 with N <= 5 and l_max = 2.0, within
   the (N-1)*l_max = 8.0 bound checked here.) *)
let prop_stamping_equivalence =
  Q.Test.make ~count:60 ~name:"WF2Q+ per-session ~ per-packet stamps"
    (workload_arb ~max_sessions:5)
    (fun ((n, _) as w) ->
      let log factory =
        let departures, _ = run_workload factory w in
        List.map (fun (p, t) -> ((p.Net.Packet.flow, p.Net.Packet.seq), t)) departures
        |> List.sort compare
      in
      let a = log Hpfq.Disciplines.wf2q_plus in
      let b = log Hpfq.Disciplines.wf2q_plus_per_packet in
      let l_max_service = 2.0 in (* sizes drawn from [0.1, 2.0], unit rate *)
      let tolerance = float_of_int (n - 1) *. l_max_service in
      List.length a = List.length b
      && List.for_all2
           (fun (k1, t1) (k2, t2) -> k1 = k2 && Float.abs (t1 -. t2) <= tolerance +. 1e-9)
           a b)

(* 6. Fluid H-GPS conservation on random two-level trees. *)
let prop_hgps_conservation =
  let gen =
    let open Q.Gen in
    let* shares = list_size (int_range 2 5) (float_range 0.1 1.0) in
    let* packets =
      list_size (int_range 1 40)
        (let* leaf = int_range 0 (List.length shares - 1) in
         let* at = float_bound_inclusive 5.0 in
         let* size = float_range 0.1 2.0 in
         return (at, leaf, size))
    in
    return (shares, packets)
  in
  Q.Test.make ~count:60 ~name:"H-GPS fluid: conservation + guarantees"
    (Q.make gen)
    (fun (shares, packets) ->
      let total_share = List.fold_left ( +. ) 0.0 shares in
      let leaves =
        List.mapi
          (fun i s -> CT.leaf (Printf.sprintf "l%d" i) ~rate:(s /. total_share))
          shares
      in
      let spec = CT.node "root" ~rate:1.0 leaves in
      let fluid = Fluid.Hgps.create ~spec () in
      let sorted = List.sort compare packets in
      let injected = ref 0.0 in
      List.iter
        (fun (at, leaf, size) ->
          let id = Fluid.Hgps.leaf_id fluid (Printf.sprintf "l%d" leaf) in
          ignore (Fluid.Hgps.arrive fluid ~at ~leaf:id ~size_bits:size);
          injected := !injected +. size)
        sorted;
      Fluid.Hgps.advance fluid ~to_:100.0;
      let root_served = Fluid.Hgps.served_bits fluid ~node:"root" in
      let leaf_sum =
        List.fold_left
          (fun acc i ->
            acc +. Fluid.Hgps.served_bits fluid ~node:(Printf.sprintf "l%d" i))
          0.0
          (List.init (List.length shares) Fun.id)
      in
      Float.abs (root_served -. !injected) < 1e-3
      && Float.abs (root_served -. leaf_sum) < 1e-3)

(* 7. Indexed heap vs model under random operation sequences. *)
let prop_indexed_heap_model =
  let op_gen =
    let open Q.Gen in
    let* code = int_range 0 3 in
    let* key = int_range 0 15 in
    let* prio = float_range 0.0 100.0 in
    return (code, key, prio)
  in
  Q.Test.make ~count:200 ~name:"indexed heap matches a model"
    (Q.make Q.Gen.(list_size (int_range 1 200) op_gen))
    (fun ops ->
      let h = Prioq.Indexed_heap.create 4 in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (code, key, prio) ->
          match code with
          | 0 ->
            if not (Hashtbl.mem model key) then begin
              Prioq.Indexed_heap.add h ~key ~prio;
              Hashtbl.replace model key prio
            end
          | 1 ->
            if Hashtbl.mem model key then begin
              Prioq.Indexed_heap.update h ~key ~prio;
              Hashtbl.replace model key prio
            end
          | 2 ->
            Prioq.Indexed_heap.remove h key;
            Hashtbl.remove model key
          | _ -> (
            match Prioq.Indexed_heap.min_binding h with
            | None -> if Hashtbl.length model <> 0 then ok := false
            | Some (k, p) ->
              let best =
                Hashtbl.fold
                  (fun k' p' acc ->
                    match acc with
                    | None -> Some (k', p')
                    | Some (bk, bp) ->
                      if p' < bp || (p' = bp && k' < bk) then Some (k', p')
                      else acc)
                  model None
              in
              (match best with
              | Some (bk, bp) -> if bk <> k || bp <> p then ok := false
              | None -> ok := false)))
        ops;
      !ok && Prioq.Indexed_heap.check_invariant h
      && Prioq.Indexed_heap.length h = Hashtbl.length model)

(* 8. Delay bound under adversarial cross traffic for random (sigma, rho). *)
let prop_wf2q_plus_delay_bound =
  Q.Test.make ~count:30 ~name:"WF2Q+: leaky-bucket delay bound (Thm 4.3)"
    Q.(pair (Q.make (Q.Gen.float_range 0.15 0.6)) (Q.make (Q.Gen.int_range 1 5)))
    (fun (r0, sigma_pkts) ->
      let sigma = float_of_int sigma_pkts in
      let sim = Sim.create () in
      let max_delay = ref 0.0 in
      let server = ref None in
      let srv =
        Server.create ~sim ~rate:1.0
          ~policy:(Hpfq.Disciplines.wf2q_plus.make ~rate:1.0)
          ~on_depart:(fun pkt t ->
            if pkt.Net.Packet.flow = 0 then
              max_delay := Float.max !max_delay (t -. pkt.Net.Packet.arrival))
          ()
      in
      server := Some srv;
      ignore (Server.open_session srv ~rate:r0 ());
      let nbg = 4 in
      let bg_rate = (1.0 -. r0) /. float_of_int nbg in
      let bgs = List.init nbg (fun _ ->
          Sched.Session_handle.slot (Server.open_session srv ~rate:bg_rate ())) in
      let emit ~size_bits = ignore (Server.inject srv ~session:0 ~size_bits) in
      ignore
        (Traffic.Source.leaky_bucket_greedy ~sim ~emit ~sigma_bits:sigma ~rho:r0
           ~packet_bits:1.0 ~stop_at:40.0 ());
      ignore
        (Sim.schedule sim ~at:0.0 (fun () ->
             List.iter
               (fun s ->
                 for _ = 1 to 60 do
                   ignore (Server.inject srv ~session:s ~size_bits:1.0)
                 done)
               bgs));
      Sim.run ~until:60.0 sim;
      let bound =
        Hpfq.Theory.delay_bound_standalone_wf2q ~sigma ~r_i:r0 ~l_max:1.0 ~r:1.0
      in
      !max_delay <= bound +. 1e-9)

(* Pinned generator seed: `dune runtest` must be reproducible, and the
   tolerance analysis above is an argument about the property, not a
   promise about every seed's worst case — exploratory fuzzing belongs in
   a manual `QCHECK_SEED=... dune exec` run, not in CI. *)
let suite =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eff; 27; 28 |]))
    ([
       prop_wf2q_plus_bandwidth_guarantee;
       prop_flat_hier_equals_server;
       prop_stamping_equivalence;
       prop_hgps_conservation;
       prop_indexed_heap_model;
       prop_wf2q_plus_delay_bound;
     ]
    @ List.concat_map
        (fun factory ->
          [
            prop_all_packets_depart factory;
            prop_session_fifo factory;
            prop_work_conserving factory;
          ])
        Hpfq.Disciplines.all)

let () = Alcotest.run "properties" [ ("qcheck", suite) ]
