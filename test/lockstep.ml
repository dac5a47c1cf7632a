(* The determinism contract as one table.

   H-PFQ (ARRIVE / RESTART-NODE / RESET-PATH over per-node WF2Q+) runs
   here as the boxed pre-pool oracle ([Boxed.Bhier]), generic [Hier] over
   any one-level discipline, [Hier_flat] and its epoch layer, each at any
   burst-drain cap, with traces replayed streamed or eagerly. A row of
   [table] names two configurations, a relation between their outcomes,
   and how many scenarios of which shape must satisfy it from which seed.
   Every pooled run also checks that no packet handle outlives it.

   This module is linked into four test executables, the hosts: each row
   runs in the executable, and under the suite and name, of the test it
   replaced, so its printed name does not move (alcotest cuts a long name
   to fit the longest suite name of its run). A host adds its rows, and a
   test pinning the table, with [with_rows]. *)

module Q = QCheck
module Sim = Engine.Simulator
module CT = Hpfq.Class_tree
module HE = Hpfq.Hier_engine
module HF = Hpfq.Hier_flat
module Bhier = Boxed.Bhier
module Trace = Traffic.Trace

let wf2q_plus = Hpfq.Disciplines.wf2q_plus

(* ---- one scenario type and one generator ---- *)

type op =
  | Inject of int * float (* leaf index, size_bits *)
  | Close of int * Sched.Sched_intf.close_policy
  | Reopen of int

(* Steps are set up in list order. [Install] replays a trace from setup
   time, so timed ops before and after it tie with trace arrivals on both
   sides of the sequence numbers the install reserves. *)
type step = At of float * op | Install of Trace.event list

(* [Ops p]: a timed op is a close (`Drain or `Drop) or a reopen with
   chance p. [Pairs (n, until)]: 0..n more pairs of ops, each a close at a
   time before [until] and a reopen of the same leaf 0.2..4.2 later. *)
type churn = Calm | Ops of float | Pairs of int * float

type shape = {
  depth : int; (* a node this deep is a leaf *)
  root_fan_out : int * int;
  fan_out : int * int;
  budget : int; (* nodes *)
  early_leaf : float; (* chance a node between root and [depth] is a leaf *)
  weights : float * float; (* child weights, scaled to 0.999 of the parent *)
  caps : bool; (* one leaf in six gets a drop-tail cap *)
  dyadic : bool; (* power-of-two rates, whole-bit sizes *)
  grid : float; (* timed ops at multiples of [grid]; 0: anywhere *)
  root_ref : bool; (* one scenario in four drives the root on `Reference_time *)
  ops : int * int; (* timed-op count *)
  horizon : float;
  churn : churn;
  trace : bool; (* a trace installed at half time, its times on [grid] too *)
}

type scenario = { spec : CT.t; leaves : string list; root_ref : bool; steps : step list }

let tree =
  { depth = 5; root_fan_out = (1, 8); fan_out = (1, 8); budget = 48; early_leaf = 1.0 /. 3.0;
    weights = (0.2, 1.0); caps = true; dyadic = false; grid = 0.0; root_ref = true; ops = (1, 120);
    horizon = 12.0; churn = Calm; trace = false }

let range rng (lo, hi) = lo + Random.State.int rng (hi - lo + 1)
let frange rng (lo, hi) = lo +. Random.State.float rng (hi -. lo)

let gen_tree g rng =
  let budget = ref g.budget and fresh = ref 0 in
  let rec node ~depth rate =
    decr budget;
    let name = Printf.sprintf "n%d" !fresh in
    incr fresh;
    if depth >= g.depth || !budget <= 0 || (depth > 0 && Random.State.float rng 1.0 < g.early_leaf)
    then
      let cap =
        if g.caps && Random.State.int rng 6 = 0 then
          Some (if g.dyadic then float_of_int (range rng (1, 8)) else frange rng (1.0, 7.0))
        else None
      in
      CT.leaf ?queue_capacity_bits:cap name ~rate
    else
      let lo, hi = if depth = 0 then g.root_fan_out else g.fan_out in
      let k = max lo (min (range rng (lo, hi)) (max 1 !budget)) in
      let rates =
        if g.dyadic then
          (* rate / 2^j with 2^j >= k: the children sum to at most [rate] *)
          let rec j0 j = if 1 lsl j >= k then j else j0 (j + 1) in
          List.init k (fun _ -> Float.ldexp rate (-(j0 0 + Random.State.int rng 2)))
        else
          let w = List.init k (fun _ -> frange rng g.weights) in
          let total = List.fold_left ( +. ) 0.0 w in
          List.map (fun w -> w *. 0.999 *. rate /. total) w
      in
      CT.node name ~rate (List.map (node ~depth:(depth + 1)) rates)
  in
  node ~depth:0 1.0

let gen_scenario g rng =
  let spec = gen_tree g rng in
  let leaves = List.map fst (CT.leaves spec) in
  let time () =
    if g.grid > 0.0 then
      g.grid *. float_of_int (Random.State.int rng (int_of_float (g.horizon /. g.grid)))
    else Random.State.float rng g.horizon
  in
  let size () = if g.dyadic then float_of_int (range rng (1, 4)) else frange rng (0.1, 2.0) in
  let leaf () = Random.State.int rng (List.length leaves) in
  let rate = match g.churn with Ops p -> p | Calm | Pairs _ -> 0.0 in
  let op () =
    let l = leaf () in
    if Random.State.float rng 1.0 >= rate then Inject (l, size ())
    else if Random.State.bool rng then Close (l, if Random.State.bool rng then `Drain else `Drop)
    else Reopen l
  in
  let timed = List.init (range rng g.ops) (fun _ -> let at = time () in At (at, op ())) in
  let pair until =
    let at = Random.State.float rng until in
    let l = leaf () in
    let policy = if Random.State.bool rng then `Drop else `Drain in
    [ At (at, Close (l, policy)); At (at +. frange rng (0.2, 4.2), Reopen l) ]
  in
  let timed =
    match g.churn with
    | Pairs (n, until) ->
      timed @ List.concat (List.init (Random.State.int rng (n + 1)) (fun _ -> pair until))
    | Calm | Ops _ -> timed
  in
  let steps =
    if not g.trace then timed
    else
      let names = Array.of_list ("ghost" :: leaves) in
      let event () =
        let time = time () in
        let leaf = names.(Random.State.int rng (Array.length names)) in
        { Trace.time; leaf; size_bits = size () }
      in
      let trace = List.init (Random.State.int rng 150) (fun _ -> event ()) in
      let early, late =
        List.partition (function At (at, _) -> at < g.horizon /. 2.0 | Install _ -> true) timed
      in
      early @ (Install trace :: late)
  in
  { spec; leaves; root_ref = g.root_ref && Random.State.int rng 4 = 0; steps }

let print_scenario s =
  let step = function
    | At (t, Inject (l, z)) -> Printf.sprintf "(%h,inj(%d,%h))" t l z
    | At (t, Close (l, `Drain)) -> Printf.sprintf "(%h,close_drain(%d))" t l
    | At (t, Close (l, `Drop)) -> Printf.sprintf "(%h,close_drop(%d))" t l
    | At (t, Reopen l) -> Printf.sprintf "(%h,reopen(%d))" t l
    | Install trace ->
      let ev e = Printf.sprintf "(%h,%s,%h)" e.Trace.time e.leaf e.size_bits in
      "install[" ^ String.concat "; " (List.map ev trace) ^ "]"
  in
  Format.asprintf "root_ref=%b@ %a@ steps=[%s]" s.root_ref CT.pp s.spec
    (String.concat "; " (List.map step s.steps))

(* a hand-written scenario, on the real-time root clock *)
let fixed spec steps = { spec; leaves = List.map fst (CT.leaves spec); root_ref = false; steps }

(* ---- configurations and the one runner ---- *)

type engine =
  | Boxed
  | Generic of Sched.Sched_intf.factory
  | Flat
  | Epoch of { shards : int; epoch : int }

(* [replay] says how an [Install] is scheduled *)
type config = { engine : engine; burst : int; replay : [ `Stream | `Eager ]; batched : bool }

let cfg ?(burst = 1) ?(replay = `Stream) ?(batched = false) engine =
  { engine; burst; replay; batched }

let config_name c =
  (match c.engine with
  | Boxed -> "boxed"
  | Generic f -> "generic(" ^ f.Sched.Sched_intf.kind ^ ")"
  | Flat -> "flat"
  | Epoch { shards; epoch } -> Printf.sprintf "epoch(k=%d,shards=%d)" epoch shards)
  ^ (if c.burst = 1 then "" else Printf.sprintf " burst=%d" c.burst)
  ^ (if c.replay = `Eager then " eager" else "")
  ^ if c.batched then " batched" else ""

(* The replay that [Trace.replay] replaced, kept as the oracle: one
   simulator event per arrival (or per run of adjacent equal-time
   arrivals when batched), all scheduled at install. *)
let eager_replay ~batched ~sim ~emit_for events =
  if not batched then
    List.fold_left
      (fun count e ->
        match emit_for ~leaf:e.Trace.leaf with
        | None -> count
        | Some emit ->
          ignore (Sim.schedule sim ~at:e.Trace.time (fun () -> emit ~size_bits:e.Trace.size_bits));
          count + 1)
      0 events
  else begin
    let scheduled = ref 0 in
    let rec take_run time acc = function
      | e :: rest when e.Trace.time = time -> take_run time (e :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec loop = function
      | [] -> ()
      | e :: _ as evs ->
        let run, rest = take_run e.Trace.time [] evs in
        let acts =
          List.filter_map
            (fun ev ->
              Option.map (fun emit -> (emit, ev.Trace.size_bits)) (emit_for ~leaf:ev.Trace.leaf))
            run
        in
        (match acts with
        | [] -> ()
        | acts ->
          scheduled := !scheduled + List.length acts;
          ignore
            (Sim.schedule sim ~at:e.Trace.time (fun () ->
                 List.iter (fun (emit, size_bits) -> emit ~size_bits) acts)));
        loop rest
    in
    loop events;
    !scheduled
  end

(* Everything observable through the public surface, exact floats. *)
type outcome = {
  departs : (string * int * float) list; (* (leaf, seq, time) in order *)
  drop_log : (string * int * float) list;
  drops : int;
  rejected : int; (* ops refused with Invalid_argument *)
  installed : int; (* trace arrivals the install scheduled *)
  clocks : (string * float * float) list; (* every node: W_n, T_n *)
  vtimes : (string * float) list; (* every interior node: V *)
  states : (string * [ `Open | `Closing | `Closed ]) list;
  now : float;
  syncs : int; (* epoch syncs that integrated an arrival; not compared *)
}

(* One engine behind the runner, addressed by leaf index. *)
type plane = {
  inject : int -> float -> unit;
  close : int -> Sched.Sched_intf.close_policy -> unit;
  reopen : int -> unit;
  state : int -> [ `Open | `Closing | `Closed ];
  drops : unit -> int;
  clock : string -> float * float;
  vtime : string -> float;
  live : unit -> int; (* packet handles still allocated *)
  flat : HF.t option;
}

let plane c ~sim s ~on_depart ~on_drop =
  let root_clock = if s.root_ref then `Reference_time else `Real_time in
  let pooled factory engine =
    let h =
      HE.create ~sim ~spec:s.spec ~factory ~engine ~root_clock ~on_depart ~on_drop
        ~burst_max:c.burst ()
    in
    let id = Array.of_list (List.map (HE.leaf_id h) s.leaves) in
    {
      inject = (fun l size_bits -> ignore (HE.inject h ~leaf:id.(l) ~size_bits));
      close = (fun l policy -> HE.close_leaf h ~leaf:id.(l) ~policy);
      reopen = (fun l -> HE.reopen_leaf h ~leaf:id.(l));
      state = (fun l -> HE.leaf_state h ~leaf:id.(l));
      drops = (fun () -> HE.drops h);
      clock = (fun node -> (HE.departed_bits h ~node, HE.ref_time h ~node));
      vtime = (fun node -> HE.node_virtual_time h ~node);
      live = (fun () -> Net.Packet_pool.live_count (HE.pool h));
      flat = HE.flat h;
    }
  in
  match c.engine with
  | Generic f -> pooled f `Generic
  | Flat -> pooled wf2q_plus `Flat
  | Epoch { shards; epoch } -> pooled wf2q_plus (`Subtree { HE.shards = Some shards; epoch })
  | Boxed ->
    let h =
      Bhier.create ~sim ~spec:s.spec ~make_policy:(Bhier.uniform wf2q_plus) ~root_clock
        ~on_depart ~on_drop ()
    in
    Bhier.set_burst_max h c.burst;
    let id = Array.of_list (List.map (Bhier.leaf_id h) s.leaves) in
    {
      inject = (fun l size_bits -> ignore (Bhier.inject h ~leaf:id.(l) ~size_bits));
      close = (fun l policy -> Bhier.close_leaf h ~leaf:id.(l) ~policy);
      reopen = (fun l -> Bhier.reopen_leaf h ~leaf:id.(l));
      state = (fun l -> Bhier.leaf_state h ~leaf:id.(l));
      drops = (fun () -> Bhier.drops h);
      clock = (fun node -> (Bhier.departed_bits h ~node, Bhier.ref_time h ~node));
      vtime = (fun node -> Bhier.node_virtual_time h ~node);
      live = (fun () -> 0);
      flat = None;
    }

let run c s =
  let sim = Sim.create () in
  let departs = ref [] and drop_log = ref [] and rejected = ref 0 and installed = ref 0 in
  let on_depart pkt ~leaf t = departs := (leaf, pkt.Net.Packet.seq, t) :: !departs in
  let on_drop pkt ~leaf t = drop_log := (leaf, pkt.Net.Packet.seq, t) :: !drop_log in
  let p = plane c ~sim s ~on_depart ~on_drop in
  Fun.protect ~finally:(fun () -> Option.iter HF.shutdown p.flat) @@ fun () ->
  let apply op =
    try
      match op with
      | Inject (l, size) -> p.inject l size
      | Close (l, policy) -> p.close l policy
      | Reopen l -> p.reopen l
    with Invalid_argument _ -> incr rejected
  in
  let index = List.mapi (fun i leaf -> (leaf, i)) s.leaves in
  let emit_for ~leaf =
    Option.map (fun l ~size_bits -> apply (Inject (l, size_bits))) (List.assoc_opt leaf index)
  in
  let replay ~batched =
    match c.replay with `Stream -> Trace.replay ~batched | `Eager -> eager_replay ~batched
  in
  List.iter
    (function
      | At (at, op) -> ignore (Sim.schedule sim ~at (fun () -> apply op))
      | Install trace -> installed := !installed + replay ~batched:c.batched ~sim ~emit_for trace)
    s.steps;
  Sim.run sim;
  (* the leak guard: a drained run holds no packet *)
  if p.live () <> 0 then
    failwith (Printf.sprintf "%s: %d packet handles live after the run" (config_name c) (p.live ()));
  let rec nodes t = (CT.name t, CT.is_leaf t) :: List.concat_map nodes (CT.children t) in
  let nodes = nodes s.spec in
  {
    departs = List.rev !departs;
    drop_log = List.rev !drop_log;
    drops = p.drops ();
    rejected = !rejected;
    installed = !installed;
    clocks = List.map (fun (n, _) -> let w, t = p.clock n in (n, w, t)) nodes;
    vtimes = List.filter_map (fun (n, leaf) -> if leaf then None else Some (n, p.vtime n)) nodes;
    states = List.mapi (fun l leaf -> (leaf, p.state l)) s.leaves;
    now = Sim.now sim;
    syncs = Option.fold ~none:0 ~some:HF.sync_rounds p.flat;
  }

(* ---- relations ---- *)

type relation =
  | Exact
  | Exact_drop_set (* the drop log compared as a multiset *)
  | Within_lag
      (* the same packets depart, as many drop, and each departs in B at
         most [lag_bound] (B's epoch, the scenario, its leaf) after A *)

(* The first observable field on which two outcomes differ. *)
let diff a b =
  let log name x y =
    if x = y then None
    else
      let rec first i = function x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys) | _ -> i in
      let i = first 0 (x, y) in
      let show l =
        match List.nth_opt l i with
        | Some (leaf, seq, t) -> Printf.sprintf "%s#%d@%h" leaf seq t
        | None -> "end"
      in
      Some (Printf.sprintf "%s differ at entry %d: %s vs %s" name i (show x) (show y))
  in
  let field name x y = if x = y then None else Some (name ^ " differ") in
  List.find_map Fun.id
    [
      log "departures" a.departs b.departs;
      log "drop logs" a.drop_log b.drop_log;
      field "drop counts" a.drops b.drops;
      field "rejected-op counts" a.rejected b.rejected;
      field "installed counts" a.installed b.installed;
      field "W_n/T_n clocks" a.clocks b.clocks;
      field "virtual times" a.vtimes b.vtimes;
      field "leaf states" a.states b.states;
      field "final times" a.now b.now;
    ]

(* Theory.epoch_lag_bound at B's epoch, the largest packet, the leaf's rate *)
let lag_bound c s leaf =
  match c.engine with
  | Epoch { epoch; _ } ->
    let l_max =
      List.fold_left (fun m -> function At (_, Inject (_, z)) -> Float.max m z | _ -> m) 0.0 s.steps
    in
    Hpfq.Theory.epoch_lag_bound ~epoch ~l_max ~rate:(List.assoc leaf (CT.leaves s.spec))
  | Boxed | Generic _ | Flat -> 0.0

(* departures as ((leaf, seq), time), sorted by packet *)
let by_key o = List.sort compare (List.map (fun (l, q, t) -> ((l, q), t)) o.departs)

let check relation cb s a b =
  match relation with
  | Exact -> diff a b
  | Exact_drop_set ->
    let sorted o = { o with drop_log = List.sort compare o.drop_log } in
    diff (sorted a) (sorted b)
  | Within_lag ->
    let ka = by_key a and kb = by_key b in
    if List.map fst ka <> List.map fst kb then Some "departed packet sets differ"
    else if a.drops <> b.drops then Some "drop counts differ"
    else
      List.find_map
        (fun (((leaf, q), ta), (_, tb)) ->
          let bound = lag_bound cb s leaf in
          if tb -. ta <= bound +. 1e-9 then None
          else Some (Printf.sprintf "%s#%d late by %.6f > bound %.6f" leaf q (tb -. ta) bound))
        (List.combine ka kb)

(* ---- the table ---- *)

type row = {
  host : string; (* the test executable that runs it: that of the test it replaced *)
  group : string;
  name : string;
  shape : shape;
  pairs : (config * config) list; (* (A, B) *)
  relation : relation;
  count : int; (* scenarios *)
  seed : int array option; (* [None]: QCheck's default, printed seed *)
}

let generic = cfg (Generic wf2q_plus)
let flat = cfg Flat
let epoch ?(shards = 2) epoch = cfg (Epoch { shards; epoch })

let table =
  let sharded = { tree with root_fan_out = (2, 8) } in
  (* arrivals plus 0..3 close-then-reopen pairs on one leaf; whole-bit
     packets on the unit-rate root, arriving on a unit grid, so departures
     tie with pending arrivals: the burst drain's edge case *)
  let churned =
    { tree with root_ref = false; ops = (1, 120); churn = Pairs (3, 10.0); dyadic = true; grid = 1.0 }
  in
  let bursts a b = List.map (fun burst -> (a, { b with burst })) [ 2; 8; 64; max_int ] in
  [
    { host = "test_hier_flat"; group = "lockstep"; name = "flat engine replays generic bit-for-bit";
      shape = tree; pairs = [ (generic, flat) ]; relation = Exact; count = 500; seed = Some [| 0xf1a7; 42 |] };
    (* dyadic trees keep every stamp exact in floats and in ticks, so the
       int-tick WF2Q+fx is an oracle that shares no code with the kernel *)
    { host = "test_hier_flat"; group = "lockstep";
      name = "flat engine replays generic over WF2Q+fx bit-for-bit";
      shape = { tree with depth = 4; root_fan_out = (1, 4); fan_out = (1, 4); budget = 40;
                dyadic = true; grid = 1.0 /. 1024.0 };
      pairs = [ (cfg (Generic Hpfq.Disciplines.wf2q_plus_fixed), flat) ]; relation = Exact;
      count = 300; seed = Some [| 0xf1a7; 42 |] };
    (* fan-outs on both sides of the kernel's scan cutoff, so generic's
       heaps face flat nodes that scan and flat nodes that keep heaps *)
    { host = "test_hier_flat"; group = "lockstep";
      name = "scan/heap cutoff: flat replays generic bit-for-bit";
      shape = { tree with depth = 3; root_fan_out = (1, 16); fan_out = (1, 16); budget = 64 };
      pairs = [ (generic, flat) ]; relation = Exact; count = 200; seed = Some [| 0xf1a7; 16 |] };
    { host = "test_hier_flat"; group = "lockstep";
      name = "subtree engine at epoch=1 replays flat bit-for-bit (shards 1/2/3)";
      shape = sharded;
      pairs = [ (flat, epoch ~shards:1 1); (flat, epoch 1); (flat, epoch ~shards:3 1) ];
      relation = Exact; count = 320; seed = Some [| 0x5b7; 96 |] };
    (* drops are accounted per shard at the sync: their order may move *)
    { host = "test_hier_flat"; group = "epoch";
      name = "epoch>1 schedules are shard-count invariant (drop log as a set)";
      shape = sharded; pairs = [ (epoch ~shards:1 4, epoch ~shards:3 4) ];
      relation = Exact_drop_set; count = 120; seed = Some [| 0x5b7; 96 |] };
    (* shallow trees with large leaf shares (the tightest bound), an
       overloaded burst so arrivals get staged, no caps *)
    { host = "test_hier_flat"; group = "epoch"; name = "lag bound measured";
      shape = { tree with depth = 2; root_fan_out = (2, 4); fan_out = (2, 2); early_leaf = 2.0 /. 3.0;
                weights = (0.5, 1.0); caps = false; root_ref = false; ops = (80, 199); horizon = 4.0 };
      pairs = [ (flat, epoch 2); (flat, epoch 8); (flat, epoch 64) ];
      relation = Within_lag; count = 10; seed = Some [| 0x1a9; 0xb0d |] };
    { host = "test_packet_pool"; group = "boxed-vs-pooled";
      name = "pooled plane replays the boxed plane byte-for-byte (generic/flat/subtree)";
      shape = { tree with depth = 4; root_fan_out = (2, 6); fan_out = (1, 6); budget = 40;
                ops = (1, 140); churn = Ops 0.2 };
      pairs = [ (cfg Boxed, generic); (cfg Boxed, flat); (cfg Boxed, epoch 1) ];
      relation = Exact; count = 400; seed = Some [| 0x9001ed; 41 |] };
    { host = "test_replay"; group = "lockstep"; name = "flat: burst-drained replay = per-packet replay";
      shape = churned; pairs = bursts flat flat; relation = Exact; count = 400; seed = Some [| 0xf1a7; 42 |] };
    { host = "test_replay"; group = "lockstep"; name = "generic: burst-drained replay = per-packet replay";
      shape = churned; pairs = bursts generic generic; relation = Exact; count = 400;
      seed = Some [| 0xf1a7; 42 |] };
    { host = "test_replay"; group = "replay"; name = "flat: streamed replay = eager replay, bursts 1/8/inf";
      shape = { tree with root_ref = false; horizon = 10.0; grid = 0.25; trace = true };
      pairs =
        List.map
          (fun (batched, burst) -> (cfg ~replay:`Eager ~batched ~burst Flat, cfg ~batched ~burst Flat))
          [ (false, 1); (false, 8); (false, max_int); (true, 1); (true, 8); (true, max_int) ];
      relation = Exact; count = 200; seed = Some [| 0xf1a7; 42 |] };
    (* two-level trees: 2..5 groups of two leaves *)
    { host = "test_lifecycle"; group = "hier-churn";
      name = "flat engine replays generic bit-for-bit under leaf churn";
      shape = { tree with depth = 2; root_fan_out = (2, 5); fan_out = (2, 2); early_leaf = 0.0;
                weights = (1.0, 1.0); caps = false; root_ref = false; ops = (20, 130);
                horizon = 10.0; churn = Ops 0.1 };
      pairs = [ (generic, flat) ]; relation = Exact; count = 300; seed = None };
  ]

(* a flat node with at most this many children scans, a wider one keeps heaps *)
let scan_max = Hpfq.Wf2q_kernel.scan_max

let test_of_row r =
  let syncs = ref 0 in
  (* interior nodes built on each side of [scan_max] *)
  let scan_nodes = ref 0 and heap_nodes = ref 0 in
  let rec count t =
    let kids = CT.children t in
    if not (CT.is_leaf t) then
      if List.length kids <= scan_max then incr scan_nodes else incr heap_nodes;
    List.iter count kids
  in
  let prop s =
    count s.spec;
    List.iter
      (fun (ca, cb) ->
        let a = run ca s and b = run cb s in
        syncs := !syncs + b.syncs;
        match check r.relation cb s a b with
        | None -> ()
        | Some msg -> Q.Test.fail_reportf "%s vs %s: %s" (config_name ca) (config_name cb) msg)
      r.pairs;
    true
  in
  let name, speed, qcheck =
    QCheck_alcotest.to_alcotest ?rand:(Option.map Random.State.make r.seed)
      (Q.Test.make ~count:r.count ~name:r.name
         (Q.make (gen_scenario r.shape) ~print:print_scenario)
         prop)
  in
  ( name, speed,
    fun () ->
      qcheck ();
      (* a bound is vacuous if B never staged an arrival *)
      (match r.relation with
      | Within_lag -> Alcotest.(check bool) "staged syncs occurred" true (!syncs > 0)
      | Exact | Exact_drop_set -> ());
      (* so is a row drawing fan-outs past the cutoff that never crosses it *)
      if max (snd r.shape.root_fan_out) (snd r.shape.fan_out) > scan_max then
        Alcotest.(check (pair bool bool)) "scan and heap nodes built" (true, true)
          (!scan_nodes > 0, !heap_nodes > 0) )

(* A later change may add rows or raise counts, never drop or cut one,
   nor move one to another host. *)
let pinned =
  let f1a7 = Some [| 0xf1a7; 42 |] and s5b7 = Some [| 0x5b7; 96 |] in
  [
    ("test_hier_flat", ("flat engine replays generic bit-for-bit", 500, f1a7));
    ("test_hier_flat", ("flat engine replays generic over WF2Q+fx bit-for-bit", 300, f1a7));
    ("test_hier_flat", ("scan/heap cutoff: flat replays generic bit-for-bit", 200, Some [| 0xf1a7; 16 |]));
    ("test_hier_flat", ("subtree engine at epoch=1 replays flat bit-for-bit (shards 1/2/3)", 320, s5b7));
    ("test_hier_flat", ("epoch>1 schedules are shard-count invariant (drop log as a set)", 120, s5b7));
    ("test_hier_flat", ("lag bound measured", 10, Some [| 0x1a9; 0xb0d |]));
    ( "test_packet_pool",
      ( "pooled plane replays the boxed plane byte-for-byte (generic/flat/subtree)", 400,
        Some [| 0x9001ed; 41 |] ) );
    ("test_replay", ("flat: burst-drained replay = per-packet replay", 400, f1a7));
    ("test_replay", ("generic: burst-drained replay = per-packet replay", 400, f1a7));
    ("test_replay", ("flat: streamed replay = eager replay, bursts 1/8/inf", 200, f1a7));
    ("test_lifecycle", ("flat engine replays generic bit-for-bit under leaf churn", 300, None));
  ]

(* The table against [pinned], and the rows [with_rows] adds to this
   host against its pinned ones, of which there must be some. *)
let test_table_pinned host rows () =
  Alcotest.(check (list (pair string (triple string int (option (array int))))))
    "hosts, rows, counts and seeds" pinned
    (List.map (fun r -> (r.host, (r.name, r.count, r.seed))) table);
  let mine = List.filter_map (fun (h, (name, _, _)) -> if h = host then Some name else None) pinned in
  Alcotest.(check bool) (host ^ " hosts pinned rows") true (mine <> []);
  Alcotest.(check (list string)) (host ^ " runs its pinned rows") mine
    (List.map (fun r -> r.name) rows)

(* The suites of this executable, its host name, with its rows added: a
   row joins the host's suite of its group, or a new suite after them;
   then suite "table" with the pin. *)
let with_rows suites =
  let host = Filename.remove_extension (Filename.basename Sys.executable_name) in
  let rows = List.filter (fun r -> r.host = host) table in
  let tests g = List.map test_of_row (List.filter (fun r -> r.group = g) rows) in
  let fresh =
    List.sort_uniq compare
      (List.filter_map (fun r -> if List.mem_assoc r.group suites then None else Some r.group) rows)
  in
  List.map (fun (g, own) -> (g, own @ tests g)) suites
  @ List.map (fun g -> (g, tests g)) fresh
  @ [ ("table", [ Alcotest.test_case "rows pinned" `Quick (test_table_pinned host rows) ]) ]
