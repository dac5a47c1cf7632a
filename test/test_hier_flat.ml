(* Flat H-WF2Q+ engine and its epoch layer: observer parity, the engine
   facade, the construction and re-entrant-hook surface, the epoch layer's
   pinned overload hashes and staging buffer, and [Shard.Subtree], the
   layer's entry for callers outside this library. The schedule relations
   (flat = generic, epoch 1 = flat, the epoch lag bound) are rows of
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

let choice engine sim = HE.create ~sim ~spec:fig3ish ~factory:wf2q_plus ~engine ()

(* the epoch layer, built on the flat engine directly *)
let epoch_layer epoch sim = HE.Flat (HF.create ~sim ~spec:fig3ish ~epoch ())

(* ---- observer-stamp parity: generic = flat = epoch 1 ---- *)

let traced_events make =
  let sim = Sim.create () in
  let h = make sim in
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
  let g = traced_events (choice `Generic) and f = traced_events (choice `Flat) in
  Alcotest.(check bool) "flat trace is non-empty" true (f <> []);
  (* [compare] rather than [=]: link-level events stamp vtime = NaN *)
  Alcotest.(check bool) "generic = flat" true (compare g f = 0)

(* At epoch > 1 a staged arrival's observer events would fire at the
   sync, not at arrival, so attaching is refused there. *)
let test_trace_attach () =
  let f = traced_events (choice `Flat) in
  Alcotest.(check bool) "flat = epoch 1" true
    (compare f (traced_events (epoch_layer 1)) = 0);
  Alcotest.check_raises "epoch > 1 rejected by set_node_observer_id"
    (Invalid_argument "Hier_flat.set_node_observer_id: observers require epoch = 1")
    (fun () -> ignore (traced_events (epoch_layer 4)))

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
      Hpfq.Hier_tree.unsafe_leaf_of_int (find 0)
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
  Alcotest.(check bool) "epoch 0 rejected" true
    (raises_invalid (fun () -> HF.create ~sim ~spec:fig3ish ~epoch:0 ()))

let test_create_defaults () =
  let sim = Sim.create () in
  let t = HF.create ~sim ~spec:fig3ish () in
  Alcotest.(check int) "epoch default" 1 (HF.epoch t);
  Alcotest.(check int) "sync_rounds starts at 0" 0 (HF.sync_rounds t);
  Alcotest.(check string) "node 0 is the root" (HF.root_name t) (HF.node_name t 0)

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

(* Hooks run while a sync applies its results, and may inject: those
   arrivals are staged into buffer cells the sync's parked drops have
   already left. Every packet must depart or drop exactly once. *)
let capped =
  CT.node "link" ~rate:1.0
    [
      CT.node "A" ~rate:0.6
        [ CT.leaf "a1" ~rate:0.4 ~queue_capacity_bits:3.0; CT.leaf "a2" ~rate:0.2 ];
      CT.node "B" ~rate:0.4
        [ CT.leaf "b1" ~rate:0.2 ~queue_capacity_bits:2.0; CT.leaf "b2" ~rate:0.2 ];
    ]

let hooked_run ~on_start ~bursts ~react () =
  let sim = Sim.create () in
  let t = HF.create ~sim ~spec:capped ~epoch:4 () in
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
  (!injected, HF.drops t, List.rev !log)

(* A drop hook that injects and then reads an accessor starts a sync
   nested in the one firing it; so does one that injects more than the
   staging buffer holds. Either nested sync must find only staged
   arrivals in the buffer, never the drops still being fired. *)
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
      let injected, drops, log = run () in
      let departed = List.length (List.filter (fun (k, _, _, _) -> k = `D) log) in
      Alcotest.(check bool) (case ^ ": some drops at a sync") true (drops > 0);
      Alcotest.(check int) (case ^ ": every packet departs or drops once") injected
        (departed + drops);
      Alcotest.(check int) (case ^ ": one log entry per packet") injected
        (List.length log))
    [
      ( "inject",
        hooked_run ~on_start:true ~bursts:[ "a1"; "b1"; "a1"; "b1"; "a1"; "b1" ]
          ~react:(fun _ ~inject ~injected ~leaf ->
            if injected < 400 then inject (if leaf = "a1" then "b2" else "a2")) );
      ("inject then read", nested_sync_run ~burst:1 ~read:true);
      ("fill the buffer", nested_sync_run ~burst:300 ~read:false);
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

let test_facade () =
  let sim = Sim.create () in
  let log = ref [] in
  let h =
    HE.create ~sim ~spec:fig3ish ~factory:wf2q_plus ~engine:`Flat
      ~on_depart:(fun pkt ~leaf t -> log := (leaf, pkt.Net.Packet.seq, t) :: !log)
      ()
  in
  Alcotest.(check bool) "a `Flat choice builds `Flat" true (HE.kind h = `Flat);
  Alcotest.(check bool) "generic projection is None" true (HE.generic h = None);
  (match HE.flat h with
  | Some f ->
    Alcotest.(check int) "flat projection is the engine" (HE.node_count h) (HF.node_count f)
  | None -> Alcotest.fail "flat projection is None");
  let a1 = HE.leaf_id h "a1" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         HE.inject_many h ~leaf:a1 ~size_bits:1.0 ~count:3));
  Sim.run sim;
  Alcotest.(check int) "three departures through the facade" 3 (List.length !log);
  Alcotest.(check bool) "non-WF2Q+ rejected" true
    (raises_invalid (fun () ->
         HE.create ~sim ~spec:fig3ish ~factory:Hpfq.Disciplines.wfq ~engine:`Flat ()))

(* The choice carries no settings: the three names round-trip, and the
   epoch layer is not one of them. *)
let test_choice_payload () =
  List.iter
    (fun name ->
      Alcotest.(check (result string string)) (name ^ " round-trips") (Ok name)
        (Result.map HE.choice_to_string (HE.choice_of_string name)))
    [ "generic"; "flat"; "auto" ];
  match HE.choice_of_string "subtree" with
  | Ok _ -> Alcotest.fail "\"subtree\" parsed"
  | Error e ->
    Alcotest.(check bool) "the error names generic|flat|auto" true
      (String.ends_with ~suffix:"(expected generic|flat|auto)" e)

(* ---- the epoch layer's overload program ---- *)

(* 16 root-child subtrees of 4 leaves; 200k one-bit packets in bursts of
   4, each at a random time and leaf, offered at 1.5x the link rate, so
   arrivals land while the link transmits and the epoch layer stages
   them. The departure hash folds (leaf, seq, time) FNV-1a style. *)
let wide =
  let sub i =
    let r = 0.999 /. 16.0 in
    CT.node (Printf.sprintf "sub%d" i) ~rate:r
      (List.init 4 (fun j -> CT.leaf (Printf.sprintf "sub%d/leaf%d" i j) ~rate:(0.999 *. r /. 4.0)))
  in
  CT.node "root" ~rate:1.0 (List.init 16 sub)

(* folds a departure into an FNV-1a hash started at 0xcbf29ce484222325 *)
let fold_depart hash (pkt : Net.Packet.t) ~leaf now =
  let fold h v = Int64.mul (Int64.logxor h v) 0x100000001b3L in
  let h = fold !hash (Int64.of_int (Hashtbl.hash leaf)) in
  let h = fold h (Int64.of_int pkt.seq) in
  hash := fold h (Int64.bits_of_float now)

let wide_hash ?epoch () =
  let sim = Sim.create () in
  let hash = ref 0xcbf29ce484222325L in
  let t = HF.create ~sim ~spec:wide ?epoch ~on_depart:(fold_depart hash) () in
  let ids = Array.of_list (List.map (fun (name, _) -> HF.leaf_id t name) (CT.leaves wide)) in
  let rng = Random.State.make [| 0x415; 0x3aed |] in
  let packets = 200_000 in
  for _ = 1 to packets / 4 do
    let leaf = ids.(Random.State.int rng 64) in
    let at = Random.State.float rng (float_of_int packets /. 1.5) in
    ignore (Sim.schedule sim ~at (fun () -> HF.inject_many t ~leaf ~size_bits:1.0 ~count:4))
  done;
  Sim.run sim;
  Printf.sprintf "%016Lx" !hash

(* Epoch 1 departs as the flat engine. *)
let test_overload_pins () =
  Alcotest.(check string) "flat" "d6d8221f9a356611" (wide_hash ());
  List.iter
    (fun (epoch, pinned) ->
      Alcotest.(check string) (Printf.sprintf "epoch %d" epoch) pinned (wide_hash ~epoch ()))
    [ (1, "d6d8221f9a356611"); (8, "4df118975fa39ddd"); (64, "463e21e622ce3bc9") ]

(* One packet on [capped] starts the link at t = 0; the bursts arrive at
   the same instant and are staged, and [react] runs at every drop. Fails
   unless every packet departs or drops exactly once; returns the syncs
   run by the end of the bursts, the syncs run in all, and the departure
   hash. *)
let staged_burst_run ?(react = fun ~inject:_ -> ()) bursts =
  let sim = Sim.create () in
  let t = HF.create ~sim ~spec:capped ~epoch:64 () in
  let hash = ref 0xcbf29ce484222325L and seen = Hashtbl.create 1024 and injected = ref 0 in
  let record kind leaf seq =
    if Hashtbl.mem seen (leaf, seq) then Alcotest.failf "%s#%d logged twice" leaf seq;
    Hashtbl.add seen (leaf, seq) kind
  in
  let inject (name, count) =
    injected := !injected + count;
    HF.inject_many t ~leaf:(HF.leaf_id t name) ~size_bits:1.0 ~count
  in
  HF.add_depart_hook t (fun pkt ~leaf now ->
      record `D leaf pkt.Net.Packet.seq;
      fold_depart hash pkt ~leaf now);
  HF.add_drop_hook t (fun pkt ~leaf _ ->
      record `X leaf pkt.Net.Packet.seq;
      react ~inject);
  let syncs_after_bursts = ref (-1) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         List.iter inject (("a2", 1) :: bursts);
         syncs_after_bursts := HF.sync_rounds t));
  Sim.run sim;
  Alcotest.(check bool) "some drops" true (HF.drops t > 0);
  Alcotest.(check int) "every packet departs or drops once" !injected (Hashtbl.length seen);
  Alcotest.(check int) "drop count = dropped packets" (HF.drops t)
    (Hashtbl.fold (fun _ k n -> if k = `X then n + 1 else n) seen 0);
  (!syncs_after_bursts, HF.sync_rounds t, Printf.sprintf "%016Lx" !hash)

(* The staging buffer holds 256 arrivals: the 257th staged between syncs
   forces an early sync. 699 arrivals over both root children, two of
   them capped, run two early syncs inside the bursts; the rest drain at
   epoch 64. *)
let test_buffer_full_sync () =
  let in_bursts, syncs, hash =
    staged_burst_run [ ("a1", 150); ("a2", 200); ("b1", 150); ("b2", 200) ]
  in
  Alcotest.(check int) "two early syncs inside the bursts" 2 in_bursts;
  Alcotest.(check bool) "later syncs at epoch boundaries" true (syncs > 2);
  Alcotest.(check string) "departure hash" "852bf0caed2be321" hash

(* An early sync's drop hooks may stage a whole buffer again before the
   arrival that forced the sync is staged: that arrival must force
   another sync, not land past the buffer's end. *)
let test_buffer_refilled_by_hooks () =
  let refilled = ref false in
  let in_bursts, _, _ =
    staged_burst_run
      ~react:(fun ~inject ->
        if not !refilled then begin
          refilled := true;
          inject ("a2", 256)
        end)
      [ ("a1", 257) ]
  in
  Alcotest.(check int) "the refill forces a second sync" 2 in_bursts

(* ---- Shard.Subtree: the epoch layer's entry outside this library ---- *)

module ST = Shard.Subtree

(* [shards] is range-checked and otherwise unused: the engine stages into
   one buffer. *)
let test_subtree_shards_range () =
  let sim = Sim.create () in
  let mk shards () = ST.create ~sim ~spec:fig3ish ~shards ~epoch:8 () in
  Alcotest.(check bool) "shards 0 rejected" true (raises_invalid (mk 0));
  Alcotest.(check bool) "shards 1 and 16 accepted" false
    (raises_invalid (mk 1) || raises_invalid (mk 16))

let test_subtree_workers_range () =
  let sim = Sim.create () in
  let mk workers () = ST.create ~sim ~spec:fig3ish ~workers ~epoch:8 () in
  Alcotest.(check bool) "workers -1 rejected" true (raises_invalid (mk (-1)));
  Alcotest.(check bool) "workers above Pool.max_jobs rejected" true
    (raises_invalid (mk (Parallel.Pool.max_jobs + 1)));
  Alcotest.(check bool) "workers 0 and Pool.max_jobs accepted" false
    (raises_invalid (mk 0) || raises_invalid (mk Parallel.Pool.max_jobs))

(* Four bursts of 200 arrivals into [capped], whose capped leaves drop:
   the departure and drop log, the syncs run by t = 100 (where [midway]
   is applied) and the syncs run in all. *)
let overload_run ?(midway = ignore) make =
  let sim = Sim.create () in
  let t = make sim in
  let log = ref [] and syncs_midway = ref (-1) in
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
         syncs_midway := HF.sync_rounds t;
         midway t));
  Sim.run sim;
  (List.rev !log, !syncs_midway, HF.sync_rounds t)

let subtree ~workers ~epoch sim = ST.create ~sim ~spec:capped ~workers ~epoch ()

let test_subtree_workers_invariant () =
  let log0, _, syncs = overload_run (subtree ~workers:0 ~epoch:4) in
  let log1, _, _ = overload_run (subtree ~workers:1 ~epoch:4) in
  Alcotest.(check bool) "epoch syncs ran" true (syncs > 0);
  Alcotest.(check bool) "some drops" true (List.exists (fun (k, _, _, _) -> k = `X) log0);
  Alcotest.(check bool) "workers 0 = workers 1" true (log0 = log1)

let test_subtree_epoch1_is_flat () =
  let flat, _, _ = overload_run (fun sim -> HF.create ~sim ~spec:capped ()) in
  let st, _, syncs = overload_run (subtree ~workers:1 ~epoch:1) in
  Alcotest.(check int) "no staged sync at epoch 1" 0 syncs;
  Alcotest.(check bool) "departs and drops as Hier_flat" true (flat = st)

(* [shutdown] mid-run leaves the engine usable: syncs after it keep the
   schedule of a run that never shut down. *)
let test_subtree_shutdown_mid_run () =
  let log0, _, _ = overload_run (subtree ~workers:0 ~epoch:4) in
  let log1, syncs_then, syncs = overload_run ~midway:ST.shutdown (subtree ~workers:1 ~epoch:4) in
  Alcotest.(check bool) "synced before shutdown" true (syncs_then > 0);
  Alcotest.(check bool) "synced after shutdown" true (syncs > syncs_then);
  Alcotest.(check bool) "schedule = no shutdown" true (log0 = log1)

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
         ( "epoch",
           [
             Alcotest.test_case "lag bound formula" `Quick test_lag_bound_formula;
             Alcotest.test_case "overload program pinned" `Quick test_overload_pins;
             Alcotest.test_case "buffer-full early sync" `Quick test_buffer_full_sync;
             Alcotest.test_case "buffer refilled by drop hooks" `Quick
               test_buffer_refilled_by_hooks;
           ] );
         ( "surface",
           [
             Alcotest.test_case "leaf lookup errors" `Quick test_flat_leaf_lookup;
             Alcotest.test_case "engine selection" `Quick test_engine_selection;
             Alcotest.test_case "inject_many" `Quick test_inject_many;
             Alcotest.test_case "inject_many rejections match" `Quick
               test_inject_many_rejections;
             Alcotest.test_case "leaf root rejected" `Quick test_flat_rejects_leaf_root;
             Alcotest.test_case "create validation" `Quick test_create_validation;
             Alcotest.test_case "create defaults" `Quick test_create_defaults;
             Alcotest.test_case "observer gate" `Quick test_observer_gate;
             Alcotest.test_case "hooks inject during a sync" `Quick test_reentrant_hooks;
           ] );
         ( "subtree",
           [
             Alcotest.test_case "workers range" `Quick test_subtree_workers_range;
             Alcotest.test_case "workers 0 = workers 1" `Quick test_subtree_workers_invariant;
             Alcotest.test_case "epoch 1 = Hier_flat" `Quick test_subtree_epoch1_is_flat;
             Alcotest.test_case "syncs after shutdown" `Quick test_subtree_shutdown_mid_run;
             Alcotest.test_case "shards range" `Quick test_subtree_shards_range;
           ] );
       ])
