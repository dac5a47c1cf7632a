(* The four workloads: their inputs, engines and rounds.

   A round is a fixed amount of work on a freshly built engine. Building
   the engine (plus decoding the trace, on imix_replay) is the round's
   set-up; the work after it is cut into windows that the runner times.
   Every engine is driven through the same small adapter, so a round can
   be rebuilt on the audited generic [Hpfq.Hier] (the reference-prefix
   check) or on a different worker count (the worker-invariance check)
   without a second copy of the workload. *)

module CT = Hpfq.Class_tree
module HE = Hpfq.Hier_engine
module ST = Shard.Subtree
module Pool = Net.Packet_pool
module Sim = Engine.Simulator

type kind = Port_4k | Tree_4k_d6 | Imix_replay | Subtree_overload

let all = [ Port_4k; Tree_4k_d6; Imix_replay; Subtree_overload ]

let name = function
  | Port_4k -> "port_4k"
  | Tree_4k_d6 -> "tree_4k_d6"
  | Imix_replay -> "imix_replay"
  | Subtree_overload -> "subtree_overload"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

let link_bps = 10e9
let pkt_bits = 512.0 (* 64 B *)
let pkt_time = pkt_bits /. link_bps
let burst_max = 64
let imix_load = 0.8
let overload = 1.5
let burst_pkts = 4
let subtree_children = 16
let subtree_leaves_per_child = 64
let subtree_leaf_cap_pkts = 8
let subtree_shards = 4
let subtree_epoch = 8
let subtree_workers = 1
let closed_loop_fanouts = [ 4; 4; 4; 4; 4; 4 ]
let closed_loop_sessions = Inputs.leaf_count closed_loop_fanouts

type params = {
  round_pkts : int;
      (** departures per round (closed loop); link packet-times per round
          (subtree_overload) *)
  window_pkts : int;  (** packet-times per timed window *)
  imix_fanout : int;
  imix_mean_pkts : float;
  imix_windows : int;
  prefix : int;  (** departures compared against the generic reference *)
  extra_setups : int;  (** set-ups timed and discarded before each round *)
}

let params kind ~quick =
  let p =
    if quick then
      { round_pkts = 0; window_pkts = 512; imix_fanout = 8; imix_mean_pkts = 64.0;
        imix_windows = 20; prefix = 2_000; extra_setups = 1 }
    else
      { round_pkts = 0; window_pkts = 4096; imix_fanout = 32; imix_mean_pkts = 475.0;
        imix_windows = 200; prefix = 100_000; extra_setups = 3 }
  in
  match kind with
  | Port_4k -> { p with round_pkts = (if quick then 16_384 else 3_000_000) }
  | Tree_4k_d6 -> { p with round_pkts = (if quick then 8_192 else 1_000_000) }
  | Imix_replay -> { p with extra_setups = 1 }
  | Subtree_overload -> { p with round_pkts = (if quick then 8_192 else 450_000) }

let leaf_count kind p =
  match kind with
  | Port_4k | Tree_4k_d6 -> closed_loop_sessions
  | Imix_replay -> p.imix_fanout * p.imix_fanout
  | Subtree_overload -> subtree_children * subtree_leaves_per_child

(* Scheduling levels a packet crosses: one WF2Q+ select per level. *)
let levels = function Port_4k -> 1 | Tree_4k_d6 -> 6 | Imix_replay | Subtree_overload -> 2

(* Children of the widest scheduling node: the size its heaps run at. *)
let widest kind p =
  match kind with
  | Port_4k -> closed_loop_sessions
  | Tree_4k_d6 -> 4
  | Imix_replay -> p.imix_fanout
  | Subtree_overload -> subtree_leaves_per_child

let leaf_name i = Printf.sprintf "l%d" i
let leaf_names n = Array.init n leaf_name

(* -- inputs ---------------------------------------------------------------- *)

type input = Weights of float array | Trace_file of string | Bursts of Inputs.bursts

let subtree_bursts ~seed p =
  let arrivals = int_of_float (overload *. float_of_int p.round_pkts) in
  Inputs.bursts ~seed
    ~fanouts:[ subtree_children; subtree_leaves_per_child ]
    ~count:(arrivals / burst_pkts)
    ~horizon:(float_of_int p.round_pkts *. pkt_time)

let imix_trace ~seed p =
  Inputs.imix_trace ~seed
    ~fanouts:[ p.imix_fanout; p.imix_fanout ]
    ~leaves:(Inputs.imix_leaves ~fanout:p.imix_fanout)
    ~mean_pkts:p.imix_mean_pkts

(* Inputs the child process generates itself; the imix trace is written
   to a file by the parent instead, so its generation never shows in the
   measured process's heap. *)
let input kind ~seed p ~trace_file =
  match kind with
  | Port_4k | Tree_4k_d6 -> Weights (Inputs.weights ~seed closed_loop_fanouts)
  | Imix_replay -> Trace_file trace_file
  | Subtree_overload -> Bursts (subtree_bursts ~seed p)

(* At least as many departures as a round makes. A binary v2 trace
   record takes 20 bytes, so a trace file holds fewer events than its
   size over 20. *)
let departure_bound p = function
  | Weights _ -> p.round_pkts
  | Bursts b -> Array.length b.at * burst_pkts
  | Trace_file path -> Int64.to_int (In_channel.with_open_bin path In_channel.length) / 20

(* -- class trees ----------------------------------------------------------- *)

let sum a = Array.fold_left ( +. ) 0.0 a

let port_spec w =
  let total = sum w in
  CT.node "root" ~rate:link_bps
    (List.init (Array.length w) (fun i ->
         CT.leaf (leaf_name i) ~rate:(link_bps *. w.(i) /. total)))

(* Depth 6 x fan-out 4 over the same 4096 weighted leaves, leaf i in
   left-to-right position i; an interior node's rate is its children's sum. *)
let tree_spec w =
  let total = sum w in
  let rec build name depth lo n =
    if depth = 0 then CT.leaf (leaf_name lo) ~rate:(link_bps *. w.(lo) /. total)
    else
      let k = n / 4 in
      let children =
        List.init 4 (fun c -> build (Printf.sprintf "%s.%d" name c) (depth - 1) (lo + (c * k)) k)
      in
      let rate =
        if depth = 6 then link_bps else List.fold_left (fun a c -> a +. CT.rate c) 0.0 children
      in
      CT.node name ~rate children
  in
  build "root" 6 0 (Array.length w)

let subtree_spec () =
  let child_rate = link_bps /. float_of_int subtree_children in
  let leaf_rate = child_rate /. float_of_int subtree_leaves_per_child in
  CT.node "root" ~rate:link_bps
    (List.init subtree_children (fun c ->
         CT.node (Printf.sprintf "c%d" c) ~rate:child_rate
           (List.init subtree_leaves_per_child (fun j ->
                CT.leaf
                  ~queue_capacity_bits:(float_of_int subtree_leaf_cap_pkts *. pkt_bits)
                  (leaf_name ((c * subtree_leaves_per_child) + j))
                  ~rate:leaf_rate))))

(* -- one adapter over every engine ---------------------------------------- *)

type engine = {
  sim : Sim.t;
  pool : Pool.t;
  flow_leaf : int array;  (** a packet's [flow] field -> leaf index *)
  inject : int -> float -> int -> unit;  (** leaf index, size in bits, count *)
  on_depart : (Pool.handle -> float -> unit) -> unit;
  on_drop : (Pool.handle -> float -> unit) -> unit;
  shutdown : unit -> unit;
  sync_rounds : unit -> int;
}

let server_engine sim w =
  let policy = Hpfq.Disciplines.wf2q_plus.Sched.Sched_intf.make ~rate:link_bps in
  let srv = Hpfq.Server.create ~sim ~rate:link_bps ~policy ~burst_max () in
  let total = sum w in
  Array.iter (fun wi -> ignore (Hpfq.Server.open_session srv ~rate:(link_bps *. wi /. total) ())) w;
  {
    sim;
    pool = Hpfq.Server.pool srv;
    flow_leaf = Array.init (Array.length w) Fun.id;
    inject =
      (fun leaf size count ->
        if count = 1 then ignore (Hpfq.Server.inject srv ~session:leaf ~size_bits:size)
        else Hpfq.Server.inject_batch srv ~session:leaf ~size_bits:size ~count);
    on_depart = Hpfq.Server.add_depart_handle_hook srv;
    on_drop = Hpfq.Server.add_drop_handle_hook srv;
    shutdown = ignore;
    sync_rounds = (fun () -> 0);
  }

(* Leaf handles in [names] order, and the node id -> leaf index map. *)
let leaf_table names leaf_id =
  let ids = Array.map leaf_id names in
  let top = Array.fold_left (fun m (l : Hpfq.Hier.leaf) -> max m (l :> int)) 0 ids in
  let flow_leaf = Array.make (top + 1) (-1) in
  Array.iteri (fun i (l : Hpfq.Hier.leaf) -> flow_leaf.((l :> int)) <- i) ids;
  (ids, flow_leaf)

(* [`Flat] is the engine under test; [`Generic] is the audited reference
   [Hpfq.Hier] the reference-prefix check compares it against. *)
let hier_engine sim spec names ~engine =
  let h = HE.create ~sim ~spec ~factory:Hpfq.Disciplines.wf2q_plus ~engine ~burst_max () in
  let ids, flow_leaf = leaf_table names (HE.leaf_id h) in
  {
    sim;
    pool = HE.pool h;
    flow_leaf;
    inject =
      (fun leaf size count ->
        if count = 1 then ignore (HE.inject h ~leaf:ids.(leaf) ~size_bits:size)
        else HE.inject_many h ~leaf:ids.(leaf) ~size_bits:size ~count);
    on_depart = (fun f -> HE.add_depart_handle_hook h (fun p ~leaf:_ t -> f p t));
    on_drop = (fun f -> HE.add_drop_handle_hook h (fun p ~leaf:_ t -> f p t));
    shutdown = ignore;
    sync_rounds = (fun () -> 0);
  }

let subtree_engine sim spec names ~workers =
  let t =
    ST.create ~sim ~spec ~burst_max ~shards:subtree_shards ~workers ~epoch:subtree_epoch ()
  in
  let ids, flow_leaf = leaf_table names (ST.leaf_id t) in
  {
    sim;
    pool = ST.pool t;
    flow_leaf;
    inject =
      (fun leaf size count ->
        if count = 1 then ignore (ST.inject t ~leaf:ids.(leaf) ~size_bits:size)
        else ST.inject_many t ~leaf:ids.(leaf) ~size_bits:size ~count);
    on_depart = (fun f -> ST.add_depart_handle_hook t (fun p ~leaf:_ t -> f p t));
    on_drop = (fun f -> ST.add_drop_handle_hook t (fun p ~leaf:_ t -> f p t));
    shutdown = (fun () -> ST.shutdown t);
    sync_rounds = (fun () -> ST.sync_rounds t);
  }

(* -- what every departure records ----------------------------------------- *)

type recorder = {
  mutable departures : int;
  mutable arrivals : int;
  mutable drops : int;
  mutable hash : int;
  mutable delays : float array;  (** simulated queueing delay, seconds *)
  pre_leaf : int array;  (** the first departures, for the reference check *)
  pre_seq : int array;
  pre_time : float array;
}

let hash_init = 0x2545F4914F6CDD1D

let recorder ?(delays = 0) ~prefix () =
  {
    departures = 0;
    arrivals = 0;
    drops = 0;
    hash = hash_init;
    delays = Array.make delays 0.0;
    pre_leaf = Array.make prefix 0;
    pre_seq = Array.make prefix 0;
    pre_time = Array.make prefix 0.0;
  }

let reset r =
  r.departures <- 0;
  r.arrivals <- 0;
  r.drops <- 0;
  r.hash <- hash_init

let[@inline] mix h v = (h lxor v) * 0x100000001b3

let[@inline] record r ~leaf ~seq ~time ~arrival =
  let d = r.departures in
  if d < Array.length r.pre_leaf then begin
    r.pre_leaf.(d) <- leaf;
    r.pre_seq.(d) <- seq;
    r.pre_time.(d) <- time
  end;
  if d < Array.length r.delays then r.delays.(d) <- time -. arrival;
  r.departures <- d + 1;
  r.hash <- mix (mix (mix r.hash leaf) seq) (Int64.to_int (Int64.bits_of_float time))

let hash_hex h = Printf.sprintf "%016x" (h land max_int)

(* -- rounds ---------------------------------------------------------------- *)

type choice = Fast | Reference | Workers of int

type ctx = {
  kind : kind;
  p : params;
  input : input;
  r : recorder;
  spans : Spans.t option;
}

type round = {
  e : engine;
  prime : unit -> unit;  (** the benchmark's own arrival program; untimed *)
  replay : unit -> int;
      (** arrivals handed to the traffic layer; timed, returns the count *)
  windows : int;
  window_end : int -> float;  (** simulated end of window k (1-based) *)
  drain : bool;  (** run to empty, untimed, after the last window *)
  standing : int;  (** packets the pool must hold once the round is over *)
}

let with_span ctx name f =
  match ctx.spans with
  | None -> f ()
  | Some sp ->
    Spans.enter sp name;
    let x = f () in
    Spans.leave sp;
    x

(* Arrival entry point: counts packets, and in traced runs wraps each
   call into the core in a [core.inject] span. *)
let counted_inject ctx e =
  let r = ctx.r in
  let inject leaf size count =
    r.arrivals <- r.arrivals + count;
    e.inject leaf size count
  in
  match ctx.spans with
  | None -> inject
  | Some sp ->
    fun leaf size count ->
      Spans.enter sp Spans.core_inject;
      inject leaf size count;
      Spans.leave sp

let install_hooks ctx e ~after =
  let r = ctx.r and pool = e.pool and flow_leaf = e.flow_leaf in
  let depart h time =
    let leaf = flow_leaf.(Pool.flow pool h) in
    record r ~leaf ~seq:(Pool.seq pool h) ~time ~arrival:(Pool.arrival pool h);
    after leaf
  in
  e.on_depart
    (match ctx.spans with
    | None -> depart
    | Some sp ->
      fun h time ->
        Spans.enter sp Spans.hook_depart;
        depart h time;
        Spans.leave sp);
  e.on_drop (fun _ _ -> r.drops <- r.drops + 1)

let no_replay () = 0
let packet_windows p k = float_of_int (k * p.window_pkts) *. pkt_time

(* Build one round's engine and arrival program. This is the timed
   set-up: engine construction, plus the trace decode on imix_replay. *)
let build ctx choice =
  let sim = Sim.create () in
  let p = ctx.p in
  match (ctx.kind, ctx.input) with
  | (Port_4k | Tree_4k_d6), Weights w ->
    let n = Array.length w in
    let names = leaf_names n in
    let e =
      match (ctx.kind, choice) with
      | Port_4k, Fast -> server_engine sim w
      | Port_4k, _ -> hier_engine sim (port_spec w) names ~engine:`Generic
      | _, Fast -> hier_engine sim (tree_spec w) names ~engine:`Flat
      | _, _ -> hier_engine sim (tree_spec w) names ~engine:`Generic
    in
    let inject = counted_inject ctx e in
    (* closed loop: every departure puts one packet back into its leaf *)
    install_hooks ctx e ~after:(fun leaf -> inject leaf pkt_bits 1);
    {
      e;
      prime =
        (fun () ->
          for i = 0 to n - 1 do
            inject i pkt_bits 1;
            inject i pkt_bits 1
          done);
      replay = no_replay;
      windows = p.round_pkts / p.window_pkts;
      window_end = packet_windows p;
      drain = false;
      standing = 2 * n;
    }
  | Imix_replay, Trace_file path ->
    let trace = with_span ctx Spans.load_binary (fun () -> Traffic.Trace.load_binary ~path) in
    let bits = List.fold_left (fun a ev -> a +. ev.Traffic.Trace.size_bits) 0.0 trace in
    let rate = bits /. Inputs.imix_duration /. imix_load in
    let spec = Bench_kit.Perf.uniform_spec ~depth:2 ~fanout:p.imix_fanout ~name:"root" ~rate in
    let names = Array.of_list (List.map fst (CT.leaves spec)) in
    let e =
      hier_engine sim spec names ~engine:(if choice = Fast then `Flat else `Generic)
    in
    let inject = counted_inject ctx e in
    install_hooks ctx e ~after:ignore;
    let emits = Hashtbl.create (Array.length names) in
    Array.iteri
      (fun i leaf -> Hashtbl.replace emits leaf (fun ~size_bits -> inject i size_bits 1))
      names;
    let emit_for ~leaf = Hashtbl.find_opt emits leaf in
    let windows = p.imix_windows in
    {
      e;
      prime = ignore;
      replay = (fun () -> Traffic.Trace.replay ~batched:true ~sim ~emit_for trace);
      windows;
      window_end =
        (fun k ->
          if k = windows then infinity
          else float_of_int k *. Inputs.imix_duration /. float_of_int windows);
      drain = false;
      standing = 0;
    }
  | Subtree_overload, Bursts b ->
    let spec = subtree_spec () in
    let names = leaf_names (subtree_children * subtree_leaves_per_child) in
    let workers =
      match choice with
      | Fast -> subtree_workers
      | Workers w -> w
      | Reference -> invalid_arg "Workloads.build: subtree_overload has no generic reference"
    in
    let e = subtree_engine sim spec names ~workers in
    let inject = counted_inject ctx e in
    install_hooks ctx e ~after:ignore;
    {
      e;
      prime =
        (fun () ->
          Array.iteri
            (fun i at ->
              let leaf = b.leaf.(i) in
              ignore (Sim.schedule sim ~at (fun () -> inject leaf pkt_bits burst_pkts)))
            b.at);
      replay = no_replay;
      windows = p.round_pkts / p.window_pkts;
      window_end = packet_windows p;
      drain = true;
      standing = 0;
    }
  | _ -> invalid_arg "Workloads.build: input does not match the workload"

let run_window e until = if until = infinity then Sim.run e.sim else Sim.run ~until e.sim
