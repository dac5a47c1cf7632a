(* Flat H-WF2Q+ engine and its epoch layer: observer parity, the engine
   facade, and the construction, partition and re-entrant-hook surface.
   The schedule relations (flat = generic, epoch 1 = flat, epoch > 1
   worker and shard invariance, the epoch lag bound) are rows of
   test/lockstep.ml, run here; the golden deep chain and the stamped-root
   spot check go through its runner as fixed scenarios. *)

module Sim = Engine.Simulator
module HF = Hpfq.Hier_flat
module HE = Hpfq.Hier_engine
module CT = Hpfq.Class_tree

let wf2q_plus = Hpfq.Disciplines.wf2q_plus

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

let subtree ?shards epoch = `Subtree { HE.shards; epoch }

(* ---- observer-stamp parity: generic = flat = epoch 1 ---- *)

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

let test_trace_parity () =
  let g = traced_events `Generic and f = traced_events `Flat in
  Alcotest.(check bool) "flat trace is non-empty" true (f <> []);
  (* [compare] rather than [=]: link-level events stamp vtime = NaN *)
  Alcotest.(check bool) "generic = flat" true (compare g f = 0)

(* At epoch > 1 observers would fire on worker domains, so attaching is
   refused there. *)
let test_trace_attach () =
  let f = traced_events `Flat in
  Alcotest.(check bool) "flat = epoch 1" true (compare f (traced_events (subtree ~shards:2 1)) = 0);
  Alcotest.check_raises "epoch > 1 rejected by set_node_observer_id"
    (Invalid_argument "Hier_flat.set_node_observer_id: observers require epoch = 1")
    (fun () -> ignore (traced_events (subtree 4)))

(* ---- fixed scenarios through the lockstep runner ---- *)

let burst_at at leaf size n = List.init n (fun _ -> Lockstep.At (at, Inject (leaf, size)))

(* A depth-8 chain of single-child nodes must be transparent: x (share
   0.75) and y (0.25) interleave by eligible finish tags, as pinned from
   the audited generic engine. *)
let test_deep_chain_golden () =
  let rec chain k inner =
    if k = 0 then inner else chain (k - 1) (CT.node (Printf.sprintf "c%d" k) ~rate:1.0 [ inner ])
  in
  let xy = CT.node "c7" ~rate:1.0 [ CT.leaf "x" ~rate:0.75; CT.leaf "y" ~rate:0.25 ] in
  let s =
    Lockstep.fixed (CT.node "root" ~rate:1.0 [ chain 6 xy ])
      (burst_at 0.0 0 1.0 4 @ burst_at 0.0 1 1.5 2 @ burst_at 8.25 1 0.5 1)
  in
  let golden = [ ("x", 1.0); ("y", 2.5); ("x", 3.5); ("x", 4.5); ("x", 5.5); ("y", 7.0); ("y", 8.75) ] in
  let g = Lockstep.(run generic s) and f = Lockstep.(run flat s) in
  let times o = List.map (fun (leaf, _, t) -> (leaf, t)) o.Lockstep.departs in
  Alcotest.(check (list (pair string (float 1e-9)))) "generic matches golden" golden (times g);
  Alcotest.(check (list (pair string (float 1e-9)))) "flat matches golden" golden (times f);
  Alcotest.(check (option string)) "flat = generic exactly" None (Lockstep.diff g f)

(* Fan-out 4 puts every flat node on the kernel's slot scan, while
   generic runs the heaps; the two must agree where the scan can go
   wrong. Equal weights and sizes tie every F_i, so the pick must fall to
   the lowest slot, as in the heaps' (prio, key) order. A slot requeued
   with S_i exactly on V's slack boundary is filed eligible, and the next
   selection post-dates V from V(now), not from that S_i. A slot filed
   waiting keeps eq. 27's threshold at its S_i even when that S_i is
   within slack of V(now). *)
let test_scan_ties_and_slack () =
  let tied =
    let group g =
      CT.node g ~rate:0.25 (List.init 4 (fun i -> CT.leaf (Printf.sprintf "%s%d" g i) ~rate:0.0625))
    in
    Lockstep.fixed
      (CT.node "root" ~rate:1.0 (List.map group [ "a"; "b"; "c"; "d" ]))
      (List.concat_map (fun l -> burst_at 0.0 l 1.0 2) (List.init 16 Fun.id)
      @ List.concat_map (fun l -> burst_at 40.0 l 1.0 1) [ 15; 5; 10; 0 ])
  in
  let g = Lockstep.(run generic tied) and f = Lockstep.(run flat tied) in
  Alcotest.(check (option string)) "tied: flat = generic exactly" None (Lockstep.diff g f);
  let first n o = List.filteri (fun i _ -> i < n) (List.map (fun (l, _, _) -> l) o.Lockstep.departs) in
  Alcotest.(check (list string)) "tied: lowest slot first at every level"
    [ "a0"; "b0"; "c0"; "d0"; "a1"; "b1"; "c1"; "d1" ]
    (first 8 f);
  (* d's first packet has F = [bound] = 1 + slack(1) exactly; a, c and b
     before it bring V to exactly 1.0 when d requeues with S = [bound]. *)
  let bound = 1.0 +. (Sched.Float_cmp.epsilon *. 2.0) in
  let x = bound *. 0.25 in
  let quad = CT.node "root" ~rate:1.0 (List.map (fun l -> CT.leaf l ~rate:0.25) [ "a"; "b"; "c"; "d" ]) in
  let slack =
    Lockstep.fixed quad
      (burst_at 0.0 0 0.25 1 @ burst_at 0.0 1 0.25 1 @ burst_at 0.0 2 (0.5 -. x) 1
      @ [ Lockstep.At (0.0, Inject (3, x)); At (0.0, Inject (3, 0.25)) ])
  in
  let g = Lockstep.(run generic slack) and f = Lockstep.(run flat slack) in
  Alcotest.(check (option string)) "slack: flat = generic exactly" None (Lockstep.diff g f);
  Alcotest.(check (list string)) "slack: service order" [ "a"; "c"; "b"; "d"; "d" ]
    (first 5 f);
  Alcotest.(check (list (pair string (float 0.0)))) "slack: V post-dated from V(now) = 1"
    [ ("root", 1.25) ] f.Lockstep.vtimes;
  (* d idles after [0, x] with F = [bound]; its next packet arrives when
     V(now) = 1.0 exactly and waits, since V = x, so S = [bound] sets the
     threshold. *)
  let waiting = Lockstep.fixed quad [ At (0.0, Inject (3, x)); At (1.0, Inject (3, 0.25)) ] in
  let g = Lockstep.(run generic waiting) and f = Lockstep.(run flat waiting) in
  Alcotest.(check (option string)) "waiting: flat = generic exactly" None (Lockstep.diff g f);
  Alcotest.(check (list (pair string (float 0.0)))) "waiting: V post-dated from S = bound"
    [ ("root", bound +. 0.25) ] f.Lockstep.vtimes

(* On a one-level tree the flat root is a standalone WF2Q+; the
   per-packet-stamped ablation (an independent implementation of the same
   fluid system) serves every packet within one packet time of it. *)
let test_stamped_root_spot_check () =
  let spec =
    CT.node "root" ~rate:1.0 [ CT.leaf "s0" ~rate:0.5; CT.leaf "s1" ~rate:0.3; CT.leaf "s2" ~rate:0.2 ]
  in
  let s = Lockstep.fixed spec (List.concat_map (fun l -> burst_at 0.0 l 1.0 6) [ 0; 1; 2 ]) in
  List.iter2
    (fun (k1, t1) (k2, t2) ->
      Alcotest.(check (pair string int)) "same packets served" k1 k2;
      Alcotest.(check bool)
        (Printf.sprintf "within one packet time (%.3f vs %.3f)" t1 t2)
        true
        (Float.abs (t1 -. t2) <= 1.0 +. 1e-9))
    Lockstep.(by_key (run flat s))
    Lockstep.(by_key (run (cfg (Generic Hpfq.Disciplines.wf2q_plus_per_packet)) s))

(* ---- surface: leaf_id errors, facade selection, inject_many ---- *)

let test_flat_leaf_lookup () =
  let sim = Sim.create () in
  let h = HF.create ~sim ~spec:fig3ish () in
  Alcotest.(check string) "leaf roundtrip" "b2" (HF.leaf_name h (HF.leaf_id h "b2"));
  Alcotest.(check int) "five leaves" 5 (List.length (HF.leaf_ids h));
  Alcotest.(check bool) "interior name is Invalid_argument" true
    (raises_invalid (fun () -> HF.leaf_id h "A"));
  Alcotest.check_raises "unknown name is Not_found" Not_found (fun () ->
      ignore (HF.leaf_id h "zzz"))

let test_engine_selection () =
  let sim = Sim.create () in
  let mk ?engine factory = HE.create ~sim ~spec:fig3ish ~factory ?engine () in
  Alcotest.(check bool) "auto picks flat for WF2Q+" true
    (HE.kind (mk wf2q_plus) = `Flat);
  Alcotest.(check bool) "auto falls back to generic for WFQ" true
    (HE.kind (mk Hpfq.Disciplines.wfq) = `Generic);
  Alcotest.(check bool) "generic can be forced" true
    (HE.kind (mk ~engine:`Generic wf2q_plus) = `Generic);
  Alcotest.(check bool) "flat rejects non-WF2Q+" true
    (raises_invalid (fun () -> mk ~engine:`Flat Hpfq.Disciplines.wfq));
  Alcotest.(check (result string string)) "choice parser" (Ok "flat")
    (Result.map HE.choice_to_string (HE.choice_of_string "flat"));
  Alcotest.(check bool) "choice parser rejects junk" true
    (Result.is_error (HE.choice_of_string "fast"))

let test_inject_many () =
  let run inject_fn =
    let sim = Sim.create () in
    let log = ref [] in
    let h =
      HF.create ~sim ~spec:fig3ish
        ~on_depart:(fun pkt ~leaf t -> log := (leaf, pkt.Net.Packet.seq, t) :: !log)
        ()
    in
    let a1 = HF.leaf_id h "a1" and b1 = HF.leaf_id h "b1" in
    ignore
      (Sim.schedule sim ~at:0.0 (fun () ->
           inject_fn h ~leaf:a1 ~size_bits:1.0 ~count:10;
           inject_fn h ~leaf:b1 ~size_bits:0.5 ~count:4));
    Sim.run sim;
    List.rev !log
  in
  let looped =
    run (fun h ~leaf ~size_bits ~count ->
        for _ = 1 to count do
          ignore (HF.inject h ~leaf ~size_bits)
        done)
  in
  let batched = run (fun h ~leaf ~size_bits ~count -> HF.inject_many h ~leaf ~size_bits ~count) in
  Alcotest.(check (list (triple string int (float 0.0))))
    "inject_many = repeated inject" looped batched

(* Both engines accept and reject the same [inject_many] calls, at count 0
   as at count 1: an interior node, a closed leaf and a closing leaf are
   rejected before any packet is made. *)
let test_inject_many_rejections () =
  let verdicts engine =
    let sim = Sim.create () in
    let h = HE.create ~sim ~spec:fig3ish ~factory:wf2q_plus ~engine () in
    let a1 = HE.leaf_id h "a1" and a2 = HE.leaf_id h "a2" and b1 = HE.leaf_id h "b1" in
    let interior =
      let rec find id = if HE.node_name h id = "A" then id else find (id + 1) in
      Hpfq.Hier.unsafe_leaf_of_int (find 0)
    in
    HE.close_leaf h ~leaf:a2 ~policy:`Drop;
    HE.inject_many h ~leaf:b1 ~size_bits:1.0 ~count:3;
    HE.close_leaf h ~leaf:b1 ~policy:`Drain;
    List.concat_map
      (fun count ->
        List.map
          (fun (what, leaf) ->
            ( Printf.sprintf "%s, count %d" what count,
              not (raises_invalid (fun () -> HE.inject_many h ~leaf ~size_bits:1.0 ~count))
            ))
          [ ("open leaf", a1); ("interior", interior); ("closed", a2); ("closing", b1) ])
      [ 0; 1 ]
  in
  let generic = verdicts `Generic and flat = verdicts `Flat in
  Alcotest.(check (list (pair string bool))) "flat accepts what generic accepts" generic flat;
  Alcotest.(check (list (pair string bool)))
    "only the open leaf is accepted"
    [
      ("open leaf, count 0", true); ("interior, count 0", false);
      ("closed, count 0", false); ("closing, count 0", false);
      ("open leaf, count 1", true); ("interior, count 1", false);
      ("closed, count 1", false); ("closing, count 1", false);
    ]
    flat

let test_flat_rejects_leaf_root () =
  let sim = Sim.create () in
  Alcotest.(check bool) "bare-leaf spec rejected" true
    (raises_invalid (fun () -> HF.create ~sim ~spec:(CT.leaf "only" ~rate:1.0) ()))

let test_create_validation () =
  let sim = Sim.create () in
  let mk ?shards ?workers ?epoch () = HF.create ~sim ~spec:fig3ish ?shards ?workers ?epoch () in
  Alcotest.(check bool) "epoch 0 rejected" true (raises_invalid (mk ~epoch:0));
  Alcotest.(check bool) "shards 0 rejected" true (raises_invalid (mk ~shards:0));
  Alcotest.(check bool) "workers -1 rejected" true (raises_invalid (mk ~workers:(-1)));
  Alcotest.(check bool) "workers above Pool.max_jobs rejected" true
    (raises_invalid (mk ~workers:(Parallel.Pool.max_jobs + 1) ~epoch:8))

let test_partition () =
  let sim = Sim.create () in
  let t = HF.create ~sim ~spec:fig3ish ~shards:8 () in
  Alcotest.(check int) "shards clamp to root children" 2 (HF.shards t);
  Alcotest.(check int) "epoch default" 1 (HF.epoch t);
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

let hooked_run ~on_start ~bursts ~react ~workers =
  let sim = Sim.create () in
  let t = HF.create ~sim ~spec:capped ~shards:2 ~workers ~epoch:4 () in
  let injected = ref 0 and log = ref [] in
  let inject name =
    incr injected;
    ignore (HF.inject t ~leaf:(HF.leaf_id t name) ~size_bits:1.0)
  in
  HF.add_depart_hook t (fun p ~leaf now -> log := (`D, leaf, p.Net.Packet.seq, now) :: !log);
  HF.add_drop_hook t (fun p ~leaf now ->
      log := (`X, leaf, p.Net.Packet.seq, now) :: !log;
      react t ~inject ~injected:!injected ~leaf);
  if on_start then
    HF.add_transmit_start_hook t (fun _ ~leaf:_ _ -> if !injected < 300 then inject "a2");
  List.iteri
    (fun i name ->
      ignore
        (Sim.schedule sim ~at:(0.25 *. float_of_int i) (fun () ->
             for _ = 1 to 12 do
               inject name
             done)))
    bursts;
  Sim.run sim;
  let drops = HF.drops t in
  HF.shutdown t;
  (!injected, drops, List.rev !log)

(* A drop hook that injects into its own shard and then reads an accessor
   starts a sync nested in the one firing it; so does one that injects
   more than a staging region holds. Either nested sync must find only
   staged arrivals in the region, never the drops still being fired. *)
let nested_sync_run ~burst ~read =
  hooked_run ~on_start:false ~bursts:(List.init 6 (fun _ -> "a1")) ~react:(fun t ~inject ~injected ~leaf:_ ->
      if injected < 1500 then begin
        for _ = 1 to burst do
          inject "a2"
        done;
        if read then ignore (HF.drops t)
      end)

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
      ( "inject",
        hooked_run ~on_start:true ~bursts:[ "a1"; "b1"; "a1"; "b1"; "a1"; "b1" ]
          ~react:(fun _ ~inject ~injected ~leaf ->
            if injected < 400 then inject (if leaf = "a1" then "b2" else "a2")) );
      ("inject then read", nested_sync_run ~burst:1 ~read:true);
      ("fill a region", nested_sync_run ~burst:300 ~read:false);
    ]

(* [shutdown] mid-run leaves the engine usable: syncs after it, of 200
   staged arrivals each, keep the schedule of a run that never had
   workers. *)
let test_shutdown_mid_run () =
  let run ~workers =
    let sim = Sim.create () in
    let t = HF.create ~sim ~spec:capped ~shards:2 ~workers ~epoch:4 () in
    let log = ref [] and syncs_at_shutdown = ref (-1) in
    HF.add_depart_hook t (fun p ~leaf now -> log := (`D, leaf, p.Net.Packet.seq, now) :: !log);
    HF.add_drop_hook t (fun p ~leaf now -> log := (`X, leaf, p.Net.Packet.seq, now) :: !log);
    let leaves = [| "a1"; "a2"; "b1"; "b2" |] in
    List.iter
      (fun at ->
        ignore
          (Sim.schedule sim ~at (fun () ->
               for i = 0 to 199 do
                 ignore (HF.inject t ~leaf:(HF.leaf_id t leaves.(i mod 4)) ~size_bits:1.0)
               done)))
      [ 0.0; 60.0; 150.0; 210.0 ];
    ignore
      (Sim.schedule sim ~at:100.0 (fun () ->
           syncs_at_shutdown := HF.sync_rounds t;
           HF.shutdown t));
    Sim.run sim;
    (List.rev !log, !syncs_at_shutdown, HF.sync_rounds t)
  in
  let log0, _, _ = run ~workers:0 in
  let log1, syncs_then, syncs = run ~workers:1 in
  Alcotest.(check bool) "synced before shutdown" true (syncs_then > 0);
  Alcotest.(check bool) "synced after shutdown" true (syncs > syncs_then);
  Alcotest.(check bool) "schedule = workers 0" true (log0 = log1)

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

let test_facade () =
  let sim = Sim.create () in
  let log = ref [] in
  let h =
    HE.create ~sim ~spec:fig3ish ~factory:wf2q_plus ~engine:(subtree ~shards:2 1)
      ~on_depart:(fun pkt ~leaf t -> log := (leaf, pkt.Net.Packet.seq, t) :: !log)
      ()
  in
  Alcotest.(check bool) "a `Subtree choice builds `Flat" true (HE.kind h = `Flat);
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
  Alcotest.(check bool) "\"subtree\" parses to shards unset, epoch 1" true
    (HE.choice_of_string "subtree" = Ok (`Subtree { HE.shards = None; epoch = 1 }));
  Alcotest.(check string) "and prints back" "subtree" (HE.choice_to_string (subtree 8));
  let sim = Sim.create () in
  let h = Hpfq.Schedulers.hier ~sim ~spec:fig3ish ~engine:(subtree ~shards:2 3) () in
  match HE.flat h with
  | Some f ->
    Alcotest.(check (list int)) "settings reach the engine (shards, epoch)" [ 2; 3 ]
      [ HF.shards f; HF.epoch f ]
  | None -> Alcotest.fail "flat projection is None"

let () =
  Alcotest.run "hier_flat"
    (Lockstep.with_rows
       [
         ( "parity",
           [
             Alcotest.test_case "trace event streams identical" `Quick test_trace_parity;
             Alcotest.test_case "deep chain golden" `Quick test_deep_chain_golden;
             Alcotest.test_case "stamped root spot check" `Quick test_stamped_root_spot_check;
             Alcotest.test_case "scan ties and slack boundary" `Quick test_scan_ties_and_slack;
           ] );
         ( "facade",
           [
             Alcotest.test_case "dispatch" `Quick test_facade;
             Alcotest.test_case "choice payload" `Quick test_choice_payload;
             Alcotest.test_case "trace attach" `Quick test_trace_attach;
           ] );
         ("epoch", [ Alcotest.test_case "lag bound formula" `Quick test_lag_bound_formula ]);
         ( "surface",
           [
             Alcotest.test_case "leaf lookup errors" `Quick test_flat_leaf_lookup;
             Alcotest.test_case "engine selection" `Quick test_engine_selection;
             Alcotest.test_case "inject_many" `Quick test_inject_many;
             Alcotest.test_case "inject_many rejections match" `Quick
               test_inject_many_rejections;
             Alcotest.test_case "leaf root rejected" `Quick test_flat_rejects_leaf_root;
             Alcotest.test_case "create validation" `Quick test_create_validation;
             Alcotest.test_case "partition" `Quick test_partition;
             Alcotest.test_case "observer gate" `Quick test_observer_gate;
             Alcotest.test_case "hooks inject during a sync" `Quick test_reentrant_hooks;
             Alcotest.test_case "syncs after shutdown" `Quick test_shutdown_mid_run;
           ] );
       ])
