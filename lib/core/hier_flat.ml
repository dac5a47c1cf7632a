open Sched
module K = Wf2q_kernel

let log_src = Logs.Src.create "hpfq.hier_flat" ~doc:"Flattened H-WF2Q+ server"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The monomorphic H-WF2Q+ fast path. Same algorithm as [Hier] instantiated
   with [Wf2q_plus] at every interior node — ARRIVE / RESTART-NODE /
   RESET-PATH over eq. 27/28/29 — but with the generic composition overhead
   flattened away:

   - every per-node field ([tn], [departed_bits], [busy], [active_child],
     the logical-head index, parent, rate) is a plain array indexed by node
     id, so nothing is boxed and the leaf-to-root walks touch contiguous
     memory instead of chasing record pointers;
   - every interior node is one node of a [Wf2q_kernel] (the same WF2Q+
     code [Wf2q_plus] runs as a one-node instance), whose per-(node,
     session) stamps live in flat arenas — the whole hierarchy's scheduler
     state is a handful of float arrays and a byte string;
   - every WF2Q+ operation is a direct static call into the kernel (no
     [Sched_intf.t] record of closures, no labeled-float boxing at closure
     boundaries: the kernel's primitives are inlined);
   - each leaf's leaf-to-root path is precomputed at [create], so the W_n
     credit walk and RESET-PATH are array iterations, not recursion.

   Both engines run the kernel's eq. 27-29 code, so the generic and flat
   engines agree exactly — enforced by the qcheck lockstep table in
   test/lockstep.ml, and against the independent int-tick
   [Wf2q_plus_fixed] by the fixed-point row there.

   The epoch layer (DESIGN.md §15) runs the same procedures with the
   root's WF2Q+ synced in epochs. Interior nodes run on their post-dated
   clocks [tn], never on simulation time, and preorder numbering makes
   every root-child subtree a contiguous id range — so shards are disjoint
   index regions of these arenas. At [epoch = 1] (the default) nothing is
   staged and the engine is exactly the sequential one. At [epoch = k > 1],
   arrivals landing while the link transmits are staged per shard; at
   latest every k-1 departures, and always before the link would go idle,
   a sync flushes them, shard by shard on the calling domain, through the
   normal ARRIVE / RESTART-NODE code with [flushing] set. A sync stages
   too few arrivals to pay for a cross-Domain round, so none is made
   (DESIGN.md §15, "Why every sync flushes inline"). That flag
   switches behaviour at exactly three boundary points, all touching
   coordinator-owned state: a restart reaching the root records a
   root-child proposal instead, an arrival backlogging a root child
   records one too, and a drop parks its handle for the coordinator. The
   coordinator then applies the proposals to the root in canonical slot
   order, which gives the (k-1) * l_max / r lag bound of
   {!Theory.epoch_lag_bound}. *)

(* Each shard stages at most this many arrivals between syncs; a full
   buffer forces an early sync. *)
let stage_slots = 256

type t = {
  sim : Engine.Simulator.t;
  pool : Net.Packet_pool.t; (* every packet in this hierarchy lives here *)
  n_nodes : int;
  root : int;
  root_real : bool; (* root policy runs on simulation time (`Real_time) *)
  (* -- static topology, indexed by node id (preorder, root = 0) -- *)
  parent : int array; (* -1 at the root *)
  rate : float array;
  level : int array;
  session_in_parent : int array; (* slot in the parent's policy, -1 at root *)
  children_off : int array; (* interior -> offset into child_ids *)
  children_len : int array; (* 0 for leaves *)
  child_ids : int array; (* all children, grouped per interior node *)
  names : string array;
  by_name : (string, int) Hashtbl.t;
  leaf_list : (string * int) list;
  (* precomputed leaf-to-root paths: leaf's nodes at
     path_nodes.(path_off.(leaf) .. path_off.(leaf) + path_len.(leaf) - 1),
     ordered leaf first, root last *)
  path_off : int array;
  path_len : int array;
  path_nodes : int array;
  (* -- per-node dynamic state -- *)
  tn : float array; (* reference time T_n, post-dated *)
  departed_bits : float array; (* W_n(0, now) *)
  busy : Bytes.t; (* '\001' while the node is in its parent's system *)
  active_child : int array; (* node id, -1 when none *)
  logical : int array; (* leaf id owning this subtree's head packet, -1 *)
  logical_bits : float array; (* size of that head packet *)
  (* -- per-leaf physical queues -- *)
  fifos : Net.Fifo.t array; (* shared dummy at interior slots *)
  next_seq : int array;
  (* per-leaf lifecycle: '\000' open, '\001' draining, '\002' `Drop close
     deferred behind the wire packet, '\003' closed. Slots are re-initialised
     in place on reopen (the topology is fixed), mirroring [Hier]'s
     close/reopen semantics exactly so the lockstep differential holds
     under churn. *)
  lifecycle : Bytes.t;
  (* -- the WF2Q+ policy of every interior node; a child's session is its
     [session_in_parent] slot -- *)
  k : K.t;
  (* server time of the event being processed, refreshed at every entry
     point (inject / completion / accessor). [node_now] reads it for the
     real-time root instead of calling [Simulator.now] per operation — the
     cross-module call returns a boxed float, and the restart cascade asks
     for the root clock several times per packet. One-element float array
     so stores stay unboxed. *)
  now_cache : float array;
  (* -- link state -- *)
  (* Hooks are handle-based internally; boxed [Net.Packet.t] views are
     materialised only inside the compat wrappers installed by
     [add_depart_hook] and friends. *)
  mutable on_depart : Net.Packet_pool.handle -> leaf:string -> float -> unit;
  mutable on_drop : Net.Packet_pool.handle -> leaf:string -> float -> unit;
  mutable on_transmit_start : Net.Packet_pool.handle -> leaf:string -> float -> unit;
  link : Link.t;
  mutable drops : int;
  (* -- the epoch layer -- *)
  shards : int; (* effective: <= number of root children *)
  epoch : int;
  node_shard : int array; (* node id -> owning shard; -1 at the root *)
  (* staged arrival handles, [stage_slots] per shard from [s * stage_slots].
     Staging (between syncs) and flushing (inside a sync) never overlap,
     so a plain array is enough. A flush compacts its dropped handles into
     the front of the shard's region; the coordinator lifts them out
     before it fires any hook ([take_parked_drops]). *)
  staged : int array;
  staged_len : int array;
  staged_drops : int array;
  mutable staged_total : int;
  mutable since_sync : int; (* departures since the last sync *)
  mutable syncs : int;
  (* set by the coordinator for the length of a flush round only *)
  mutable flushing : bool;
  (* per-root-child boundary proposals recorded while flushing, applied
     (and cleared) by the coordinator in slot order: '\000' none,
     'b' backlog, 'r' requeue, 'i' idle *)
  proposal : Bytes.t;
}

let nop_leaf_cb _ ~leaf:_ _ = ()

let[@inline] node_now t n =
  if n = t.root && t.root_real then Array.unsafe_get t.now_cache 0 else t.tn.(n)

(* -- The WF2Q+ building block ----------------------------------------- *)
(* None of these takes a float, so no float crosses a call boundary: each
   reads its operands — the child's committed head size, the node clock —
   from the arrays, and [child] (the child node id) stands in for both the
   session slot ([session_in_parent]) and the head size ([logical_bits],
   written by the caller before the call). The kernel's primitives are
   inlined into them. *)

let p_backlog t node ~child =
  K.backlog t.k node t.session_in_parent.(child) ~now:(node_now t node)
    ~head_bits:t.logical_bits.(child)

let p_requeue t node ~child =
  K.requeue t.k node t.session_in_parent.(child) ~now:(node_now t node)
    ~head_bits:t.logical_bits.(child)

let p_set_idle t node ~child =
  K.set_idle t.k node t.session_in_parent.(child) ~now:(node_now t node)

(* Returns the selected slot, or -1 when no session is backlogged. *)
let p_select t node = K.select t.k node ~now:(node_now t node)

(* -- The three pseudocode procedures, over flat arrays ------------------- *)

let drop_leaf_queue t leaf =
  let now = Engine.Simulator.now t.sim in
  let fifo = t.fifos.(leaf) in
  let name = t.names.(leaf) in
  while not (Net.Fifo.is_empty fifo) do
    let p = Net.Fifo.pop_exn fifo in
    t.drops <- t.drops + 1;
    t.on_drop p ~leaf:name now;
    Net.Packet_pool.free t.pool p
  done

(* While flushing, the root belongs to the coordinator: a root child's
   change of head is recorded for [apply_proposals] instead. *)
let[@inline] propose t child kind = Bytes.set t.proposal t.session_in_parent.(child) kind

let rec restart_node t n =
  let slot = p_select t n in
  if slot >= 0 then begin
    let child = t.child_ids.(t.children_off.(n) + slot) in
    let leaf = t.logical.(child) in
    if leaf < 0 then
      invalid_arg "Hier_flat: policy selected a child with empty logical queue";
    let bits = t.logical_bits.(child) in
    t.active_child.(n) <- child;
    t.logical.(n) <- leaf;
    t.logical_bits.(n) <- bits;
    (* RESTART-NODE line 13: post-date this node's reference clock *)
    t.tn.(n) <- t.tn.(n) +. (bits /. t.rate.(n));
    let was_busy = Bytes.unsafe_get t.busy n <> '\000' in
    Bytes.unsafe_set t.busy n '\001';
    if n = t.root then start_transmission t
    else begin
      let q = t.parent.(n) in
      if t.flushing && q = t.root then propose t n (if was_busy then 'r' else 'b')
      else begin
        (* the committed head is a fresh logical packet in the parent's
           system — an observer-only event, nothing to update *)
        (match K.observer t.k q with
        | None -> ()
        | Some o ->
          let q_now = node_now t q in
          o.Sched_intf.on_arrive ~now:q_now
            ~vtime:(K.linear_v t.k q ~now:q_now)
            ~session:t.session_in_parent.(n) ~size_bits:bits);
        if was_busy then
          (* line 8: s_n <- f_n *)
          p_requeue t q ~child:n
        else
          (* line 9: s_n <- max(f_n, V_q) *)
          p_backlog t q ~child:n;
        (* line 17: keep restarting upward while the parent has no head *)
        if t.logical.(q) < 0 then restart_node t q
      end
    end
  end
  else begin
    t.active_child.(n) <- -1;
    let was_busy = Bytes.unsafe_get t.busy n <> '\000' in
    Bytes.unsafe_set t.busy n '\000';
    if n <> t.root && was_busy then begin
      let q = t.parent.(n) in
      if t.flushing && q = t.root then propose t n 'i'
      else begin
        p_set_idle t q ~child:n;
        if t.logical.(q) < 0 then restart_node t q
      end
    end
  end

and start_transmission t =
  if not (Link.busy t.link) then begin
    let leaf = t.logical.(t.root) in
    (* the wire packet stays at its leaf's fifo head until RESET-PATH pops it *)
    if leaf >= 0 then Link.start t.link (Net.Fifo.peek_exn t.fifos.(leaf))
  end

(* Transmission complete: the link has already cleared its busy flag. A
   burst drain has advanced the clock, so [now_cache] is refreshed first. *)
and complete_transmission t pkt =
  let now = Engine.Simulator.now t.sim in
  Array.unsafe_set t.now_cache 0 now;
  if t.epoch > 1 then begin
    (* epoch boundary: integrate staged arrivals before RESET-PATH picks
       the next packet, so a proposal is never more than epoch-1
       departures stale. The link is idle and the departing packet still
       owns [logical] along its path, so applying proposals here cannot
       start a transmission out from under the reset. *)
    t.since_sync <- t.since_sync + 1;
    if t.staged_total > 0 && t.since_sync >= t.epoch - 1 then sync_now t
  end;
  let leaf = Net.Packet_pool.flow t.pool pkt in
  let bits = Net.Packet_pool.size_bits t.pool pkt in
  (* account W_n along the precomputed leaf-to-root path *)
  let off = t.path_off.(leaf) and len = t.path_len.(leaf) in
  for k = 0 to len - 1 do
    let n = t.path_nodes.(off + k) in
    t.departed_bits.(n) <- t.departed_bits.(n) +. bits
  done;
  t.on_depart pkt ~leaf:t.names.(leaf) now;
  reset_path t leaf;
  (* the handle outlives RESET-PATH (which pops it from the leaf fifo) and
     every callback; only now is the slot safe to recycle *)
  Net.Packet_pool.free t.pool pkt;
  (* never leave the link idle with staged work: the sequential schedule
     would have started one of those packets already *)
  if t.epoch > 1 && (not (Link.busy t.link)) && t.staged_total > 0 then sync_now t

(* RESET-PATH: clear the logical queues down the transmitted packet's path
   (it IS the active path — every logical head on it is this packet),
   dequeue at the leaf, then restart upward. *)
and reset_path t leaf =
  let off = t.path_off.(leaf) and len = t.path_len.(leaf) in
  for k = len - 1 downto 0 do
    let n = t.path_nodes.(off + k) in
    t.logical.(n) <- -1;
    t.active_child.(n) <- -1
  done;
  let fifo = t.fifos.(leaf) in
  Net.Fifo.drop_head fifo;
  let q = t.parent.(leaf) in
  (match Bytes.get t.lifecycle leaf with
  | '\002' ->
    (* a `Drop close was deferred while this leaf's head held the wire:
       discard the rest of the queue and finish the close now *)
    drop_leaf_queue t leaf;
    p_set_idle t q ~child:leaf;
    Bytes.set t.lifecycle leaf '\003'
  | state ->
    if not (Net.Fifo.is_empty fifo) then begin
      let next = Net.Fifo.peek_exn fifo in
      t.logical.(leaf) <- leaf;
      t.logical_bits.(leaf) <- Net.Packet_pool.size_bits t.pool next;
      p_requeue t q ~child:leaf
    end
    else begin
      p_set_idle t q ~child:leaf;
      if state = '\001' then Bytes.set t.lifecycle leaf '\003'
    end);
  restart_node t q

(* ARRIVE for an allocated, sequenced packet: inline from [inject], or for a
   staged one inside a flush round. Reads the size back from the pool so no
   float crosses the call. *)
and arrive t pkt ~leaf =
  if not (Net.Fifo.push t.fifos.(leaf) pkt) then begin
    if t.flushing then begin
      (* park the handle at the front of its shard's staging region; the
         coordinator counts it, fires [on_drop] and frees it after the
         round *)
      let s = t.node_shard.(leaf) in
      let d = t.staged_drops.(s) in
      t.staged.((s * stage_slots) + d) <- pkt;
      t.staged_drops.(s) <- d + 1
    end
    else begin
      t.drops <- t.drops + 1;
      Log.debug (fun m ->
          m "drop at leaf %s: %g bits, queue %g bits full" t.names.(leaf)
            (Net.Packet_pool.size_bits t.pool pkt)
            (Net.Fifo.bits t.fifos.(leaf)));
      t.on_drop pkt ~leaf:t.names.(leaf) (Array.unsafe_get t.now_cache 0);
      Net.Packet_pool.free t.pool pkt
    end
  end
  else begin
    let q = t.parent.(leaf) in
    (match K.observer t.k q with
    | None -> ()
    | Some o ->
      let q_now = node_now t q in
      o.Sched_intf.on_arrive ~now:q_now
        ~vtime:(K.linear_v t.k q ~now:q_now)
        ~session:t.session_in_parent.(leaf)
        ~size_bits:(Net.Packet_pool.size_bits t.pool pkt));
    (* ARRIVE lines 2-3: nothing more to do when the subtree has a head *)
    if t.logical.(leaf) < 0 then begin
      t.logical.(leaf) <- leaf;
      t.logical_bits.(leaf) <- Net.Packet_pool.size_bits t.pool pkt;
      if t.flushing && q = t.root then propose t leaf 'b'
      else begin
        p_backlog t q ~child:leaf;
        if Bytes.get t.busy q = '\000' then restart_node t q
      end
    end
  end

(* One shard's flush: touches only shard-owned node and arena indices plus
   the shard's staging cells. *)
and flush_shard t s =
  let base = s * stage_slots in
  let n = t.staged_len.(s) in
  t.staged_len.(s) <- 0;
  for i = base to base + n - 1 do
    let pkt = t.staged.(i) in
    arrive t pkt ~leaf:(Net.Packet_pool.flow t.pool pkt)
  done

and sync_now t =
  t.since_sync <- 0;
  if t.staged_total > 0 then begin
    t.staged_total <- 0;
    t.syncs <- t.syncs + 1;
    t.flushing <- true;
    for s = 0 to t.shards - 1 do
      flush_shard t s
    done;
    t.flushing <- false;
    apply_proposals t
  end

and apply_proposals t =
  let dropped = take_parked_drops t in
  (* canonical slot order, so the root-side heap insertion order — and with
     it every tie-break — is independent of the shard partition *)
  let off = t.children_off.(t.root) in
  for slot = 0 to t.children_len.(t.root) - 1 do
    match Bytes.get t.proposal slot with
    | '\000' -> ()
    | kind ->
      Bytes.set t.proposal slot '\000';
      let child = t.child_ids.(off + slot) in
      (match kind with
      | 'r' -> p_requeue t t.root ~child
      | 'b' -> p_backlog t t.root ~child
      | _ -> p_set_idle t t.root ~child);
      if t.logical.(t.root) < 0 then restart_node t t.root
  done;
  for i = 0 to Array.length dropped - 1 do
    let p = dropped.(i) in
    t.drops <- t.drops + 1;
    t.on_drop p
      ~leaf:t.names.(Net.Packet_pool.flow t.pool p)
      (Net.Packet_pool.arrival t.pool p);
    Net.Packet_pool.free t.pool p
  done

(* Lifts the flush round's parked drops out of the staging regions, in
   shard order, before any hook can run: a hook may inject and start a
   nested sync, which must find staged arrivals only. The round left every
   region's staged count at 0, so nothing sits behind the drops. *)
and take_parked_drops t =
  let n = ref 0 in
  for s = 0 to t.shards - 1 do
    n := !n + t.staged_drops.(s)
  done;
  if !n = 0 then [||]
  else begin
    let dropped = Array.make !n 0 in
    let k = ref 0 in
    for s = 0 to t.shards - 1 do
      let d = t.staged_drops.(s) in
      Array.blit t.staged (s * stage_slots) dropped !k d;
      k := !k + d;
      t.staged_drops.(s) <- 0
    done;
    dropped
  end

(* Lifecycle operations and state accessors run an epoch boundary first, so
   they observe every staged arrival (a no-op at epoch 1). *)
let sync_if_staged t =
  if t.epoch > 1 && t.staged_total > 0 then begin
    Array.unsafe_set t.now_cache 0 (Engine.Simulator.now t.sim);
    sync_now t
  end

(* Called from [inject_at], which has refreshed [now_cache]. *)
let stage t pkt ~leaf =
  let s = t.node_shard.(leaf) in
  (* a full region is an early epoch boundary, which empties it *)
  if t.staged_len.(s) = stage_slots then sync_now t;
  let n = t.staged_len.(s) in
  t.staged.((s * stage_slots) + n) <- pkt;
  t.staged_len.(s) <- n + 1;
  t.staged_total <- t.staged_total + 1

(* -- Construction --------------------------------------------------------- *)

let create ~sim ~spec ?(root_clock = `Real_time) ?on_depart ?on_drop
    ?(burst_max = 1) ?shards ?(workers = 0) ?(epoch = 1) () =
  if epoch < 1 then invalid_arg "Hier_flat.create: epoch must be >= 1";
  (* validated, though no sync runs on a worker Domain *)
  if workers < 0 || workers > Parallel.Pool.max_jobs then
    invalid_arg
      (Printf.sprintf "Hier_flat.create: workers must be in 0..%d, got %d"
         Parallel.Pool.max_jobs workers);
  (match shards with
  | Some s when s < 1 -> invalid_arg "Hier_flat.create: shards must be >= 1"
  | _ -> ());
  (match Class_tree.validate spec with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Hier_flat.create: invalid tree: " ^ String.concat "; " errors));
  (match spec with
  | Class_tree.Leaf _ -> invalid_arg "Hier_flat.create: root must be an interior node"
  | Class_tree.Node _ -> ());
  let n_nodes = Class_tree.count_nodes spec in
  let parent = Array.make n_nodes (-1) in
  let rate = Array.make n_nodes 0.0 in
  let level = Array.make n_nodes 0 in
  let session_in_parent = Array.make n_nodes (-1) in
  let children_off = Array.make n_nodes 0 in
  let children_len = Array.make n_nodes 0 in
  let names = Array.make n_nodes "" in
  let by_name = Hashtbl.create 16 in
  let is_leaf = Array.make n_nodes false in
  let capacity = Array.make n_nodes None in
  (* preorder ids, same assignment as [Hier.create] so the two engines agree
     on node numbering (handy for cross-validation and tooling) *)
  let counter = ref 0 in
  let leaf_list = ref [] in
  let rec number ~lvl ~par s =
    let id = !counter in
    incr counter;
    names.(id) <- Class_tree.name s;
    rate.(id) <- Class_tree.rate s;
    level.(id) <- lvl;
    parent.(id) <- par;
    Hashtbl.replace by_name names.(id) id;
    (match s with
    | Class_tree.Leaf { queue_capacity_bits; _ } ->
      is_leaf.(id) <- true;
      capacity.(id) <- queue_capacity_bits;
      leaf_list := (names.(id), id) :: !leaf_list
    | Class_tree.Node _ -> ());
    List.iter (fun c -> ignore (number ~lvl:(lvl + 1) ~par:id c)) (Class_tree.children s);
    id
  in
  let root = number ~lvl:0 ~par:(-1) spec in
  (* children tables: recover each node's child ids (contiguous in preorder
     numbering only per subtree, so collect from the parent array) *)
  let kids = Array.make n_nodes [] in
  for id = n_nodes - 1 downto 1 do
    kids.(parent.(id)) <- id :: kids.(parent.(id))
  done;
  let total_children = n_nodes - 1 in
  let child_ids = Array.make (max 1 total_children) (-1) in
  let next_off = ref 0 in
  for id = 0 to n_nodes - 1 do
    let cs = kids.(id) in
    children_off.(id) <- !next_off;
    List.iteri
      (fun slot c ->
        child_ids.(!next_off + slot) <- c;
        session_in_parent.(c) <- slot)
      cs;
    children_len.(id) <- List.length cs;
    next_off := !next_off + children_len.(id)
  done;
  (* one kernel node per node, with one slot per child *)
  let k = K.create ~rate ~slots:children_len in
  for id = 1 to n_nodes - 1 do
    K.reset_slot k parent.(id) session_in_parent.(id) ~rate:rate.(id)
  done;
  (* leaf-to-root paths, flattened *)
  let path_off = Array.make n_nodes 0 in
  let path_len = Array.make n_nodes 0 in
  let total_path = ref 0 in
  for id = 0 to n_nodes - 1 do
    if is_leaf.(id) then begin
      path_off.(id) <- !total_path;
      path_len.(id) <- level.(id) + 1;
      total_path := !total_path + path_len.(id)
    end
  done;
  let path_nodes = Array.make (max 1 !total_path) (-1) in
  for id = 0 to n_nodes - 1 do
    if is_leaf.(id) then begin
      let n = ref id in
      for k = 0 to path_len.(id) - 1 do
        path_nodes.(path_off.(id) + k) <- !n;
        n := parent.(!n)
      done
    end
  done;
  let pool = Net.Packet_pool.create () in
  let link = Link.create ~sim ~pool ~rate:rate.(root) ~burst_max in
  let dummy_fifo = Net.Fifo.create ~pool () in
  let fifos =
    Array.init n_nodes (fun id ->
        if is_leaf.(id) then Net.Fifo.create ?capacity_bits:capacity.(id) ~pool ()
        else dummy_fifo)
  in
  (* shard assignment: root-child subtrees round-robin over the effective
     shard count; preorder contiguity means one pass suffices *)
  let root_children = children_len.(root) in
  let shards =
    match shards with
    | Some s -> max 1 (min s root_children)
    | None -> max 1 root_children
  in
  let node_shard = Array.make n_nodes (-1) in
  let cur = ref (-1) in
  for id = 0 to n_nodes - 1 do
    if id <> root then begin
      if parent.(id) = root then cur := session_in_parent.(id) mod shards;
      node_shard.(id) <- !cur
    end
  done;
  let t =
    {
      sim;
      pool;
      n_nodes;
      root;
      root_real = (root_clock = `Real_time);
      parent;
      rate;
      level;
      session_in_parent;
      children_off;
      children_len;
      child_ids;
      names;
      by_name;
      leaf_list = List.rev !leaf_list;
      path_off;
      path_len;
      path_nodes;
      tn = Array.make n_nodes 0.0;
      departed_bits = Array.make n_nodes 0.0;
      busy = Bytes.make n_nodes '\000';
      active_child = Array.make n_nodes (-1);
      logical = Array.make n_nodes (-1);
      logical_bits = Array.make n_nodes 0.0;
      fifos;
      next_seq = Array.make n_nodes 1;
      lifecycle = Bytes.make n_nodes '\000';
      k;
      now_cache = [| 0.0 |];
      on_depart = nop_leaf_cb;
      on_drop = nop_leaf_cb;
      on_transmit_start = nop_leaf_cb;
      link;
      drops = 0;
      shards;
      epoch;
      node_shard;
      staged = (if epoch > 1 then Array.make (shards * stage_slots) (-1) else [||]);
      staged_len = Array.make shards 0;
      staged_drops = Array.make shards 0;
      staged_total = 0;
      since_sync = 0;
      syncs = 0;
      flushing = false;
      proposal = Bytes.make (max 1 root_children) '\000';
    }
  in
  (match on_depart with
  | None -> ()
  | Some f ->
    t.on_depart <-
      (fun h ~leaf now -> f (Net.Packet_pool.to_packet pool h) ~leaf now));
  (match on_drop with
  | None -> ()
  | Some f ->
    t.on_drop <-
      (fun h ~leaf now -> f (Net.Packet_pool.to_packet pool h) ~leaf now));
  Link.set_complete t.link (complete_transmission t);
  Log.info (fun m ->
      m "created flat H-WF2Q+ server: %d nodes, %d leaves, root rate %a, %d shards, \
         epoch %d"
        n_nodes (List.length t.leaf_list) Engine.Units.pp_rate rate.(root) shards epoch);
  t

let shutdown (_ : t) = ()
let shards t = t.shards
let epoch t = t.epoch
let sync_rounds t = t.syncs
let node_shard t id = t.node_shard.(id)

(* -- Public operations ---------------------------------------------------- *)

let node_by_name t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> id
  | None -> raise Not_found

let leaf_id t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id when t.children_len.(id) = 0 -> Hier.unsafe_leaf_of_int id
  | Some id ->
    invalid_arg
      (Printf.sprintf "Hier_flat.leaf_id: %S is an interior node, not a leaf" t.names.(id))
  | None -> raise Not_found

let leaf_name t (id : Hier.leaf) = t.names.((id :> int))
let leaf_ids t = List.map (fun (nm, id) -> (nm, Hier.unsafe_leaf_of_int id)) t.leaf_list

let check_open_leaf t ~fn leaf =
  if t.children_len.(leaf) <> 0 then invalid_arg (fn ^ ": not a leaf");
  if Bytes.get t.lifecycle leaf <> '\000' then invalid_arg (fn ^ ": leaf is closed")

let inject_at t ~mark ~leaf ~size_bits ~now =
  check_open_leaf t ~fn:"Hier_flat.inject" leaf;
  let pkt =
    Net.Packet_pool.alloc t.pool ~mark ~flow:leaf ~seq:t.next_seq.(leaf) ~size_bits
      ~arrival:now
  in
  t.next_seq.(leaf) <- t.next_seq.(leaf) + 1;
  (* epoch > 1: an arrival on a busy link is staged (stamped and sequenced
     now, integrated at the next sync); one on an idle link takes the
     inline path — the sequential schedule would start it immediately, and
     deferring it would break the lag bound *)
  if t.epoch > 1 && (Link.busy t.link || t.staged_total > 0) then stage t pkt ~leaf
  else arrive t pkt ~leaf;
  pkt

let inject_one t ~mark ~leaf ~size_bits =
  let now = Engine.Simulator.now t.sim in
  Array.unsafe_set t.now_cache 0 now;
  inject_at t ~mark ~leaf ~size_bits ~now

let inject ?(mark = 0) t ~(leaf : Hier.leaf) ~size_bits =
  inject_one t ~mark ~leaf:(leaf :> int) ~size_bits

let inject_many ?(mark = 0) t ~(leaf : Hier.leaf) ~size_bits ~count =
  (* batched arrivals stamped with one clock read (the clock cannot move
     during injection, so stamps match [count] separate injects bitwise);
     after the first packet the leaf has a head, so each further packet is
     one fifo push + one (observer-only) arrive *)
  if count < 0 then invalid_arg "Hier_flat.inject_many: negative count";
  let leaf = (leaf :> int) in
  (* checked before the [count = 0] shortcut, as [Hier.inject_many] does *)
  check_open_leaf t ~fn:"Hier_flat.inject_many" leaf;
  if count > 0 then begin
    let now = Engine.Simulator.now t.sim in
    Array.unsafe_set t.now_cache 0 now;
    for _ = 1 to count do
      ignore (inject_at t ~mark ~leaf ~size_bits ~now)
    done
  end

(* -- Leaf lifecycle ------------------------------------------------------ *)

let leaf_state t ~(leaf : Hier.leaf) =
  match Bytes.get t.lifecycle (leaf :> int) with
  | '\000' -> `Open
  | '\001' | '\002' -> `Closing
  | _ -> `Closed

(* CLOSE-LEAF, the array mirror of [Hier.close_leaf]: the committed-chain
   retract walks the parent links clearing every ancestor whose logical
   head is this leaf's committed packet ([logical] stores the owning leaf
   id, so the physical-equality test of the generic engine becomes an int
   compare), then removes the slot from the parent's heaps with no
   observer event — the kernel's [remove], as in
   [Wf2q_plus.close_session `Drop] — and lets the restart cascade repair
   the cleared ancestors. *)
let close_leaf t ~(leaf : Hier.leaf) ~policy =
  sync_if_staged t;
  let leaf = (leaf :> int) in
  if t.children_len.(leaf) <> 0 then invalid_arg "Hier_flat.close_leaf: not a leaf";
  if Bytes.get t.lifecycle leaf <> '\000' then
    invalid_arg "Hier_flat.close_leaf: leaf already closed or closing";
  Array.unsafe_set t.now_cache 0 (Engine.Simulator.now t.sim);
  let q = t.parent.(leaf) in
  if t.logical.(leaf) < 0 then
    (* idle leaf: nothing is scheduled anywhere on its path *)
    Bytes.set t.lifecycle leaf '\003'
  else
    match policy with
    | `Drain -> Bytes.set t.lifecycle leaf '\001'
    | `Drop ->
      if Link.in_flight t.link = Net.Fifo.peek_exn t.fifos.(leaf) then
        (* the wire packet is never recalled; RESET-PATH completes the
           close at its departure *)
        Bytes.set t.lifecycle leaf '\002'
      else begin
        drop_leaf_queue t leaf;
        t.logical.(leaf) <- -1;
        let m = ref q in
        let walking = ref true in
        while !walking do
          if t.logical.(!m) = leaf then begin
            t.logical.(!m) <- -1;
            t.active_child.(!m) <- -1;
            if !m = t.root then walking := false else m := t.parent.(!m)
          end
          else walking := false
        done;
        K.remove t.k q t.session_in_parent.(leaf);
        Bytes.set t.lifecycle leaf '\003';
        if t.logical.(q) < 0 then restart_node t q
      end

let reopen_leaf ?rate t ~(leaf : Hier.leaf) =
  sync_if_staged t;
  let leaf = (leaf :> int) in
  if t.children_len.(leaf) <> 0 then invalid_arg "Hier_flat.reopen_leaf: not a leaf";
  (match Bytes.get t.lifecycle leaf with
  | '\003' -> ()
  | '\000' -> invalid_arg "Hier_flat.reopen_leaf: leaf is open"
  | _ -> invalid_arg "Hier_flat.reopen_leaf: close still in progress");
  (match rate with
  | Some r ->
    if r <= 0.0 then invalid_arg "Hier_flat.reopen_leaf: rate must be positive";
    t.rate.(leaf) <- r
  | None -> ());
  (* fresh-session stamps, as [Wf2q_plus.open_session] on a recycled slot *)
  K.reset_slot t.k t.parent.(leaf) t.session_in_parent.(leaf) ~rate:t.rate.(leaf);
  Bytes.set t.lifecycle leaf '\000'

let queue_bits t ~(leaf : Hier.leaf) =
  sync_if_staged t;
  let leaf = (leaf :> int) in
  if t.children_len.(leaf) <> 0 then invalid_arg "Hier_flat.queue_bits: not a leaf";
  Net.Fifo.bits t.fifos.(leaf)

let departed_bits t ~node =
  sync_if_staged t;
  t.departed_bits.(node_by_name t node)

let ref_time t ~node =
  sync_if_staged t;
  t.tn.(node_by_name t node)

let node_virtual_time t ~node =
  sync_if_staged t;
  let id = node_by_name t node in
  if t.children_len.(id) = 0 then
    invalid_arg "Hier_flat.node_virtual_time: leaf has no policy";
  Array.unsafe_set t.now_cache 0 (Engine.Simulator.now t.sim);
  K.linear_v t.k id ~now:(node_now t id)

let link_busy t = Link.busy t.link
let drops t =
  sync_if_staged t;
  t.drops

let set_burst_max t n = Link.set_burst_max t.link n
let burst_max t = Link.burst_max t.link

(* -- Observability -------------------------------------------------------- *)

let compose_leaf_cb f g =
  if f == nop_leaf_cb then g
  else fun pkt ~leaf now ->
    f pkt ~leaf now;
    g pkt ~leaf now

let add_depart_handle_hook t f = t.on_depart <- compose_leaf_cb t.on_depart f
let add_drop_handle_hook t f = t.on_drop <- compose_leaf_cb t.on_drop f

let add_transmit_start_handle_hook t f =
  t.on_transmit_start <- compose_leaf_cb t.on_transmit_start f;
  Link.set_on_start t.link (fun pkt ->
      t.on_transmit_start pkt
        ~leaf:t.names.(Net.Packet_pool.flow t.pool pkt)
        (Engine.Simulator.now t.sim))

(* Boxed compat wrappers: materialise a [Net.Packet.t] per event. *)
let boxed t f = fun h ~leaf now -> f (Net.Packet_pool.to_packet t.pool h) ~leaf now
let add_depart_hook t f = add_depart_handle_hook t (boxed t f)
let add_drop_hook t f = add_drop_handle_hook t (boxed t f)
let add_transmit_start_hook t f = add_transmit_start_handle_hook t (boxed t f)

let pool t = t.pool

let root_name t = t.names.(t.root)
let node_name t id = t.names.(id)
let node_count t = t.n_nodes

let leaf_path t ~(leaf : Hier.leaf) =
  let leaf = (leaf :> int) in
  if t.children_len.(leaf) <> 0 then invalid_arg "Hier_flat.leaf_path: not a leaf";
  Array.sub t.path_nodes t.path_off.(leaf) t.path_len.(leaf)

let iter_interior t f =
  for id = 0 to t.n_nodes - 1 do
    if t.children_len.(id) > 0 then
      f ~id ~name:t.names.(id) ~level:t.level.(id)
        ~children:(Array.sub t.child_ids t.children_off.(id) t.children_len.(id))
  done

(* At epoch > 1 a staged arrival's backlog/requeue events would fire at
   the sync, shard by shard, not when the packet arrived. *)
let check_observer_epoch t fn observer =
  if t.epoch > 1 && Option.is_some observer then
    invalid_arg (Printf.sprintf "Hier_flat.%s: observers require epoch = 1" fn)

let set_node_observer_id t ~node observer =
  check_observer_epoch t "set_node_observer_id" observer;
  if node < 0 || node >= t.n_nodes || t.children_len.(node) = 0 then
    invalid_arg "Hier_flat.set_node_observer_id: not an interior node";
  K.set_observer t.k node observer

let set_node_observer t ~node observer =
  check_observer_epoch t "set_node_observer" observer;
  let id = node_by_name t node in
  if t.children_len.(id) = 0 then
    invalid_arg "Hier_flat.set_node_observer: leaf has no policy";
  K.set_observer t.k id observer
