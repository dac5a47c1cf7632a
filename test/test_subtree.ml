(* Hier_flat's epoch layer (the subtree-sharded engine): epoch = 1 lockstep
   differential against the plain engine, epoch > 1 determinism across
   worker and shard counts, the (k-1) * l_max / r service-lag bound as a
   measurement, and the facade / validation surface.

   The engine promises *bit-identical* behaviour to [Hier_flat.create] with
   no epoch settings at [epoch = 1] — same departure order and times, same
   drops, same per-node W_n / T_n / V clocks — at any shard/worker count.
   Every epoch = 1 comparison below is exact structural equality, no
   tolerance. *)

module Q = QCheck
module Sim = Engine.Simulator
module HF = Hpfq.Hier_flat
module HE = Hpfq.Hier_engine
module CT = Hpfq.Class_tree

let wf2q_plus = Hpfq.Disciplines.wf2q_plus

(* ---- random trees + arrival programs (test_hier_flat's generator with a
   forced fan-out >= 2 at the root, so the shard partition is non-trivial) *)

type scenario = {
  spec : CT.t;
  leaves : string list;
  packets : (float * int * float) list; (* (time, leaf index, size_bits) *)
  root_ref : bool; (* drive the root on `Reference_time *)
}

let scenario_gen rng =
  let budget = ref 48 in
  let fresh = ref 0 in
  let rec gen ~depth rate =
    decr budget;
    let name =
      let id = !fresh in
      incr fresh;
      Printf.sprintf "n%d" id
    in
    let leaf () =
      let cap =
        if Random.State.int rng 6 = 0 then Some (1.0 +. Random.State.float rng 6.0)
        else None
      in
      CT.leaf ?queue_capacity_bits:cap name ~rate
    in
    if depth >= 5 || !budget <= 0 || (depth > 0 && Random.State.int rng 3 = 0) then
      leaf ()
    else begin
      let k =
        let k = min (1 + Random.State.int rng 8) (max 1 !budget) in
        if depth = 0 then max 2 k else k
      in
      let weights = Array.init k (fun _ -> 0.2 +. Random.State.float rng 0.8) in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let scale = 0.999 *. rate /. total in
      CT.node name ~rate
        (List.init k (fun i -> gen ~depth:(depth + 1) (weights.(i) *. scale)))
    end
  in
  let spec = gen ~depth:0 1.0 in
  let leaves = List.map fst (CT.leaves spec) in
  let n_packets = 1 + Random.State.int rng 120 in
  let packets =
    List.init n_packets (fun _ ->
        ( Random.State.float rng 12.0,
          Random.State.int rng (List.length leaves),
          0.1 +. Random.State.float rng 1.9 ))
  in
  { spec; leaves; packets; root_ref = Random.State.int rng 4 = 0 }

let print_scenario s =
  Format.asprintf "root_ref=%b@ %a@ packets=[%s]" s.root_ref CT.pp s.spec
    (String.concat "; "
       (List.map (fun (t, l, z) -> Printf.sprintf "(%h,%d,%h)" t l z) s.packets))

let rec node_names spec =
  CT.name spec :: List.concat_map node_names (CT.children spec)

let rec interior_names spec =
  if CT.is_leaf spec then []
  else CT.name spec :: List.concat_map interior_names (CT.children spec)

(* Everything observable through the public surface, with exact floats:
   departures in order, the drop log in order, and per-node W_n / T_n / V
   at the end. *)
type observed = {
  o_departs : (string * int * float) list;
  o_drop_log : (string * int * float) list;
  o_drops : int;
  o_clocks : (string * float * float) list;
  o_vtimes : (string * float) list;
}

let run_observed s ~mk ~leaf_id ~inject ~observe =
  let sim = Sim.create () in
  let dep = ref [] and drp = ref [] in
  let on_depart pkt ~leaf t = dep := (leaf, pkt.Net.Packet.seq, t) :: !dep in
  let on_drop pkt ~leaf t = drp := (leaf, pkt.Net.Packet.seq, t) :: !drp in
  let root_clock = if s.root_ref then `Reference_time else `Real_time in
  let h = mk sim ~root_clock ~on_depart ~on_drop in
  let ids = Array.of_list (List.map (leaf_id h) s.leaves) in
  List.iter
    (fun (at, leaf, size) ->
      ignore
        (Sim.schedule sim ~at (fun () -> inject h ~leaf:ids.(leaf) ~size_bits:size)))
    s.packets;
  Sim.run sim;
  let drops, clocks, vtimes = observe h in
  {
    o_departs = List.rev !dep;
    o_drop_log = List.rev !drp;
    o_drops = drops;
    o_clocks = clocks;
    o_vtimes = vtimes;
  }

let replay_flat s =
  run_observed s
    ~mk:(fun sim ~root_clock ~on_depart ~on_drop ->
      HF.create ~sim ~spec:s.spec ~root_clock ~on_depart ~on_drop ())
    ~leaf_id:HF.leaf_id
    ~inject:(fun h ~leaf ~size_bits -> ignore (HF.inject h ~leaf ~size_bits))
    ~observe:(fun h ->
      ( HF.drops h,
        List.map
          (fun n -> (n, HF.departed_bits h ~node:n, HF.ref_time h ~node:n))
          (node_names s.spec),
        List.map (fun n -> (n, HF.node_virtual_time h ~node:n)) (interior_names s.spec)
      ))

let replay_subtree ?(epoch = 1) ~shards ~workers s =
  let engine = ref None in
  let r =
    run_observed s
      ~mk:(fun sim ~root_clock ~on_depart ~on_drop ->
        let t =
          HF.create ~sim ~spec:s.spec ~root_clock ~on_depart ~on_drop ~shards
            ~workers ~epoch ()
        in
        engine := Some t;
        t)
      ~leaf_id:HF.leaf_id
      ~inject:(fun h ~leaf ~size_bits -> ignore (HF.inject h ~leaf ~size_bits))
      ~observe:(fun h ->
        ( HF.drops h,
          List.map
            (fun n -> (n, HF.departed_bits h ~node:n, HF.ref_time h ~node:n))
            (node_names s.spec),
          List.map (fun n -> (n, HF.node_virtual_time h ~node:n)) (interior_names s.spec)
        ))
  in
  Option.iter HF.shutdown !engine;
  r

(* ---- epoch = 1: bit-identical to the flat engine at every shard/worker
   count tested ---- *)

let prop_lockstep =
  Q.Test.make ~count:320
    ~name:"subtree engine at epoch=1 replays flat bit-for-bit (shards 1/2/3)"
    (Q.make scenario_gen ~print:print_scenario)
    (fun s ->
      let reference = replay_flat s in
      List.for_all
        (fun (shards, workers) -> replay_subtree ~shards ~workers s = reference)
        [ (1, 0); (2, 0); (3, 2) ])

(* ---- epoch > 1: with the partition fixed, worker count is invisible;
   with the partition varied, only the drop-callback grouping may move
   (drops are accounted per shard at the sync) ---- *)

let prop_epoch_worker_invariance =
  Q.Test.make ~count:120
    ~name:"epoch>1 schedules are bit-identical across worker counts"
    (Q.make scenario_gen ~print:print_scenario)
    (fun s ->
      List.for_all
        (fun epoch ->
          replay_subtree ~epoch ~shards:2 ~workers:0 s
          = replay_subtree ~epoch ~shards:2 ~workers:2 s)
        [ 2; 5 ])

let sort_drop_log o = { o with o_drop_log = List.sort compare o.o_drop_log }

let prop_epoch_shard_invariance =
  Q.Test.make ~count:120
    ~name:"epoch>1 schedules are shard-count invariant (drop log as a set)"
    (Q.make scenario_gen ~print:print_scenario)
    (fun s ->
      sort_drop_log (replay_subtree ~epoch:4 ~shards:1 ~workers:0 s)
      = sort_drop_log (replay_subtree ~epoch:4 ~shards:3 ~workers:0 s))

(* ---- the (k-1) * l_max / r lag bound, measured ----

   Shallow trees with substantial leaf shares (so the bound is as tight as
   it gets) and a heavily overloaded arrival burst (so arrivals land while
   the link transmits and really get staged), no queue caps (so both
   engines serve the same packet set). Every packet must depart no later
   than the sequential schedule plus the session's
   [Theory.epoch_lag_bound]. *)

let lag_scenario rng =
  let k = 2 + Random.State.int rng 3 in
  let weights = Array.init k (fun _ -> 0.5 +. Random.State.float rng 0.5) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let scale = 0.999 /. total in
  let child i =
    let r = weights.(i) *. scale in
    if Random.State.int rng 3 = 0 then
      let a = 0.4 +. Random.State.float rng 0.2 in
      CT.node (Printf.sprintf "c%d" i) ~rate:r
        [
          CT.leaf (Printf.sprintf "c%dx" i) ~rate:(a *. 0.999 *. r);
          CT.leaf (Printf.sprintf "c%dy" i) ~rate:((1.0 -. a) *. 0.999 *. r);
        ]
    else CT.leaf (Printf.sprintf "c%d" i) ~rate:r
  in
  let spec = CT.node "root" ~rate:1.0 (List.init k child) in
  let leaves = List.map fst (CT.leaves spec) in
  let n_packets = 80 + Random.State.int rng 120 in
  let packets =
    List.init n_packets (fun _ ->
        ( Random.State.float rng 4.0,
          Random.State.int rng (List.length leaves),
          0.1 +. Random.State.float rng 1.9 ))
  in
  { spec; leaves; packets; root_ref = false }

let by_key departs =
  List.sort compare (List.map (fun (l, q, t) -> ((l, q), t)) departs)

let test_epoch_lag_bound () =
  let rng = Random.State.make [| 0x1a9; 0xb0d |] in
  let scenarios = List.init 10 (fun _ -> lag_scenario rng) in
  let staged_syncs = ref 0 in
  List.iter
    (fun epoch ->
      (* one epoch value also runs with a worker domain, so the pooled
         flush path is under the bound too *)
      let workers = if epoch = 8 then 1 else 0 in
      List.iter
        (fun s ->
          let rates = CT.leaves s.spec in
          let l_max =
            List.fold_left (fun a (_, _, z) -> Float.max a z) 0.0 s.packets
          in
          let seq = replay_flat s in
          let sim = Sim.create () in
          let dep = ref [] in
          let t =
            HF.create ~sim ~spec:s.spec ~shards:2 ~workers ~epoch
              ~on_depart:(fun pkt ~leaf t ->
                dep := (leaf, pkt.Net.Packet.seq, t) :: !dep)
              ()
          in
          let ids = Array.of_list (List.map (HF.leaf_id t) s.leaves) in
          List.iter
            (fun (at, leaf, size) ->
              ignore
                (Sim.schedule sim ~at (fun () ->
                     ignore (HF.inject t ~leaf:ids.(leaf) ~size_bits:size))))
            s.packets;
          Sim.run sim;
          staged_syncs := !staged_syncs + HF.sync_rounds t;
          Alcotest.(check int) "no drops without queue caps" 0 (HF.drops t);
          HF.shutdown t;
          let seq_d = by_key seq.o_departs and ep_d = by_key (List.rev !dep) in
          Alcotest.(check int) "same departure count" (List.length seq_d)
            (List.length ep_d);
          List.iter2
            (fun ((leaf, q), t_seq) ((leaf', q'), t_ep) ->
              Alcotest.(check (pair string int)) "same packet set" (leaf, q)
                (leaf', q');
              let rate = List.assoc leaf rates in
              let bound = Hpfq.Theory.epoch_lag_bound ~epoch ~l_max ~rate in
              if t_ep -. t_seq > bound +. 1e-9 then
                Alcotest.failf
                  "epoch=%d leaf=%s seq#%d late by %.6f > bound %.6f (rate %.4f)"
                  epoch leaf q (t_ep -. t_seq) bound rate)
            seq_d ep_d)
        scenarios)
    [ 2; 8; 64 ];
  (* the measurement is vacuous if nothing was ever staged *)
  Alcotest.(check bool) "staged syncs occurred" true (!staged_syncs > 0)

(* ---- construction validation, partition, observers ---- *)

let fig3ish =
  CT.node "link" ~rate:1.0
    [
      CT.node "A" ~rate:0.6 [ CT.leaf "a1" ~rate:0.4; CT.leaf "a2" ~rate:0.2 ];
      CT.node "B" ~rate:0.4
        [ CT.leaf "b1" ~rate:0.2; CT.leaf "b2" ~rate:0.1; CT.leaf "b3" ~rate:0.1 ];
    ]

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_create_validation () =
  let sim = Sim.create () in
  let mk ?shards ?workers ?epoch () =
    HF.create ~sim ~spec:fig3ish ?shards ?workers ?epoch ()
  in
  Alcotest.(check bool) "epoch 0 rejected" true (raises_invalid (mk ~epoch:0));
  Alcotest.(check bool) "shards 0 rejected" true (raises_invalid (mk ~shards:0));
  Alcotest.(check bool) "workers -1 rejected" true (raises_invalid (mk ~workers:(-1)));
  Alcotest.(check bool) "leaf root rejected" true
    (raises_invalid (fun () ->
         HF.create ~sim ~spec:(CT.leaf "only" ~rate:1.0) ()))

let test_partition () =
  let sim = Sim.create () in
  let t = HF.create ~sim ~spec:fig3ish ~shards:8 () in
  Alcotest.(check int) "shards clamp to root children" 2 (HF.shards t);
  Alcotest.(check int) "epoch default" 1 (HF.epoch t);
  Alcotest.(check int) "workers default" 0 (HF.workers t);
  Alcotest.(check int) "sync_rounds starts at 0" 0 (HF.sync_rounds t);
  Alcotest.(check string) "node 0 is the root" (HF.root_name t) (HF.node_name t 0);
  Alcotest.(check int) "root is coordinator-owned" (-1) (HF.node_shard t 0);
  for id = 1 to HF.node_count t - 1 do
    let s = HF.node_shard t id in
    if s < 0 || s >= HF.shards t then
      Alcotest.failf "node %d (%s) landed on shard %d" id (HF.node_name t id) s
  done;
  (* subtree-contiguous: a node shares its non-root parent's shard *)
  HF.iter_interior t (fun ~id ~name:_ ~level:_ ~children ->
      Array.iter
        (fun c ->
          if id <> 0 && HF.node_shard t c <> HF.node_shard t id then
            Alcotest.failf "node %d not on parent %d's shard" c id)
        children)

let test_observer_gate () =
  let sim = Sim.create () in
  let observer = Sched.Sched_intf.null_observer in
  let t1 = HF.create ~sim ~spec:fig3ish ~epoch:1 () in
  HF.set_node_observer t1 ~node:"A" (Some observer);
  HF.set_node_observer t1 ~node:"A" None;
  let t2 = HF.create ~sim ~spec:fig3ish ~epoch:4 () in
  Alcotest.(check bool) "observer rejected at epoch>1" true
    (raises_invalid (fun () -> HF.set_node_observer t2 ~node:"A" (Some observer)));
  HF.set_node_observer t2 ~node:"A" None (* clearing is always allowed *)

(* Hooks run on the coordinator while a sync applies its results, and may
   inject: those arrivals are staged into regions the sync's parked drops
   have already left. Every packet must depart or drop exactly once,
   identically at any worker count. *)
let capped =
  CT.node "link" ~rate:1.0
    [
      CT.node "A" ~rate:0.6
        [ CT.leaf "a1" ~rate:0.4 ~queue_capacity_bits:3.0; CT.leaf "a2" ~rate:0.2 ];
      CT.node "B" ~rate:0.4
        [ CT.leaf "b1" ~rate:0.2 ~queue_capacity_bits:2.0; CT.leaf "b2" ~rate:0.2 ];
    ]

let reentrant_run ~workers =
  let sim = Sim.create () in
  let t = HF.create ~sim ~spec:capped ~shards:2 ~workers ~epoch:4 () in
  let a2 = HF.leaf_id t "a2" and b2 = HF.leaf_id t "b2" in
  let injected = ref 0 and log = ref [] in
  let inject leaf =
    incr injected;
    ignore (HF.inject t ~leaf ~size_bits:1.0)
  in
  HF.add_depart_hook t (fun p ~leaf now -> log := (`D, leaf, p.Net.Packet.seq, now) :: !log);
  HF.add_drop_hook t (fun p ~leaf now ->
      log := (`X, leaf, p.Net.Packet.seq, now) :: !log;
      if !injected < 400 then inject (if leaf = "a1" then b2 else a2));
  HF.add_transmit_start_hook t (fun _ ~leaf:_ _ -> if !injected < 300 then inject a2);
  List.iteri
    (fun i name ->
      let leaf = HF.leaf_id t name in
      ignore
        (Sim.schedule sim ~at:(0.25 *. float_of_int i) (fun () ->
             for _ = 1 to 12 do
               inject leaf
             done)))
    [ "a1"; "b1"; "a1"; "b1"; "a1"; "b1" ];
  Sim.run sim;
  let drops = HF.drops t in
  HF.shutdown t;
  (!injected, drops, List.rev !log)

(* A drop hook that injects into its own shard and then reads an accessor
   starts a sync nested in the one firing it; so does one that injects
   more than a staging region holds. Either nested sync must find only
   staged arrivals in the region, never the drops still being fired. *)
let nested_sync_run ~workers ~burst ~read =
  let sim = Sim.create () in
  let t = HF.create ~sim ~spec:capped ~shards:2 ~workers ~epoch:4 () in
  let a1 = HF.leaf_id t "a1" and a2 = HF.leaf_id t "a2" in
  let injected = ref 0 and log = ref [] in
  let inject leaf =
    incr injected;
    ignore (HF.inject t ~leaf ~size_bits:1.0)
  in
  HF.add_depart_hook t (fun p ~leaf now -> log := (`D, leaf, p.Net.Packet.seq, now) :: !log);
  HF.add_drop_hook t (fun p ~leaf now ->
      log := (`X, leaf, p.Net.Packet.seq, now) :: !log;
      if !injected < 1500 then begin
        for _ = 1 to burst do
          inject a2
        done;
        if read then ignore (HF.drops t)
      end);
  for i = 0 to 5 do
    ignore
      (Sim.schedule sim ~at:(0.25 *. float_of_int i) (fun () ->
           for _ = 1 to 12 do
             inject a1
           done))
  done;
  Sim.run sim;
  let drops = HF.drops t in
  HF.shutdown t;
  (!injected, drops, List.rev !log)

let test_reentrant_hooks () =
  List.iter
    (fun (case, run) ->
      let injected, drops, log = run ~workers:0 in
      let departed = List.length (List.filter (fun (k, _, _, _) -> k = `D) log) in
      Alcotest.(check bool) (case ^ ": some drops at a sync") true (drops > 0);
      Alcotest.(check int) (case ^ ": every packet departs or drops once") injected
        (departed + drops);
      Alcotest.(check int) (case ^ ": one log entry per packet") injected
        (List.length log);
      let _, _, log1 = run ~workers:1 in
      Alcotest.(check bool) (case ^ ": worker-count invariant") true (log = log1))
    [
      ("inject", reentrant_run);
      ("inject then read", nested_sync_run ~burst:1 ~read:true);
      ("fill a region", nested_sync_run ~burst:300 ~read:false);
    ]

let test_lag_bound_formula () =
  let b = Hpfq.Theory.epoch_lag_bound in
  Alcotest.(check (float 0.0)) "epoch 1 is exact" 0.0 (b ~epoch:1 ~l_max:2.0 ~rate:0.5);
  Alcotest.(check (float 1e-12)) "(k-1) l_max / r" 16.0 (b ~epoch:5 ~l_max:2.0 ~rate:0.5);
  Alcotest.(check bool) "epoch 0 rejected" true
    (raises_invalid (fun () -> b ~epoch:0 ~l_max:1.0 ~rate:1.0));
  Alcotest.(check bool) "l_max 0 rejected" true
    (raises_invalid (fun () -> b ~epoch:2 ~l_max:0.0 ~rate:1.0));
  Alcotest.(check bool) "rate 0 rejected" true
    (raises_invalid (fun () -> b ~epoch:2 ~l_max:1.0 ~rate:0.0))

(* ---- the Hier_engine facade: the settings travel in the choice ---- *)

let subtree ?shards ?(workers = 0) epoch = `Subtree { HE.shards; workers; epoch }

let test_facade () =
  let sim = Sim.create () in
  let log = ref [] in
  let h =
    HE.create ~sim ~spec:fig3ish ~factory:wf2q_plus ~engine:(subtree ~shards:2 1)
      ~on_depart:(fun pkt ~leaf t -> log := (leaf, pkt.Net.Packet.seq, t) :: !log)
      ()
  in
  Alcotest.(check bool) "kind is `Subtree" true (HE.kind h = `Subtree);
  Alcotest.(check string) "kind_name self-describes" "subtree(shards=2,epoch=1,workers=0)"
    (HE.kind_name h);
  Alcotest.(check bool) "generic projection is None" true (HE.generic h = None);
  (match HE.flat h with
  | Some f -> Alcotest.(check int) "flat projection is the engine" 2 (HF.shards f)
  | None -> Alcotest.fail "flat projection is None");
  let a1 = HE.leaf_id h "a1" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         HE.inject_many h ~leaf:a1 ~size_bits:1.0 ~count:3));
  Sim.run sim;
  Alcotest.(check int) "three departures through the facade" 3 (List.length !log);
  Alcotest.(check bool) "non-WF2Q+ rejected" true
    (raises_invalid (fun () ->
         HE.create ~sim ~spec:fig3ish ~factory:Hpfq.Disciplines.wfq ~engine:(subtree 1)
           ()))

let test_choice_payload () =
  Alcotest.(check bool) "\"subtree\" parses to shards unset, 0 workers, epoch 1" true
    (HE.choice_of_string "subtree"
    = Ok (`Subtree { HE.shards = None; workers = 0; epoch = 1 }));
  Alcotest.(check string) "and prints back" "subtree" (HE.choice_to_string (subtree 8));
  let sim = Sim.create () in
  let h = Hpfq.Schedulers.hier ~sim ~spec:fig3ish ~engine:(subtree ~shards:2 3) () in
  Alcotest.(check string) "settings reach the engine" "subtree(shards=2,epoch=3,workers=0)"
    (HE.kind_name h)

(* At epoch 1 the subtree engine is the flat engine, so it traces exactly
   as [`Flat] does; at epoch > 1 observers would fire on worker domains. *)
let traced_events engine =
  let sim = Sim.create () in
  let h = HE.create ~sim ~spec:fig3ish ~factory:wf2q_plus ~engine () in
  let trace = Obs.Trace.attach_engine h in
  let leaves = Array.of_list (List.map snd (HE.leaf_ids h)) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         Array.iteri
           (fun i leaf ->
             for _ = 1 to 3 + i do
               ignore (HE.inject h ~leaf ~size_bits:(1.0 +. (0.25 *. float_of_int i)))
             done)
           leaves));
  ignore
    (Sim.schedule sim ~at:7.5 (fun () ->
         ignore (HE.inject h ~leaf:leaves.(0) ~size_bits:0.5)));
  Sim.run sim;
  Obs.Trace.events trace

let test_trace_attach () =
  let f = traced_events `Flat and s = traced_events (subtree ~shards:2 1) in
  Alcotest.(check bool) "flat trace is non-empty" true (f <> []);
  (* [compare] rather than [=]: link-level events stamp vtime = NaN *)
  Alcotest.(check bool) "epoch 1 traces exactly as flat" true (compare f s = 0);
  let sim = Sim.create () in
  let h = HE.create ~sim ~spec:fig3ish ~factory:wf2q_plus ~engine:(subtree 4) () in
  Alcotest.check_raises "epoch > 1 rejected by set_node_observer_id"
    (Invalid_argument "Hier_flat.set_node_observer_id: observers require epoch = 1")
    (fun () -> ignore (Obs.Trace.attach_engine h))

let () =
  let seeded = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5b7; 96 |]) in
  Alcotest.run "subtree"
    [
      ( "facade",
        [
          Alcotest.test_case "dispatch" `Quick test_facade;
          Alcotest.test_case "choice payload" `Quick test_choice_payload;
          Alcotest.test_case "trace attach" `Quick test_trace_attach;
        ] );
      ("lockstep", [ seeded prop_lockstep ]);
      ( "epoch",
        [
          seeded prop_epoch_worker_invariance;
          seeded prop_epoch_shard_invariance;
          Alcotest.test_case "lag bound measured" `Quick test_epoch_lag_bound;
          Alcotest.test_case "lag bound formula" `Quick test_lag_bound_formula;
        ] );
      ( "surface",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "observer gate" `Quick test_observer_gate;
          Alcotest.test_case "hooks inject during a sync" `Quick test_reentrant_hooks;
        ] );
    ]
