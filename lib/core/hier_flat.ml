open Sched
module K = Wf2q_kernel

let log_src = Logs.Src.create "hpfq.hier_flat" ~doc:"Flattened H-WF2Q+ server"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The monomorphic H-WF2Q+ fast path. Same algorithm as [Hier] instantiated
   with [Wf2q_plus] at every interior node — ARRIVE / RESTART-NODE /
   RESET-PATH over eq. 27/28/29 — but with the generic composition overhead
   flattened away:

   - every per-node field ([tn], [departed_bits], [busy], the
     logical-head index, parent, rate) is a plain array indexed by node
     id, so nothing is boxed and no walk chases record pointers. The
     index numbers nodes level by level, so the upper levels, which every
     departure's RESET-PATH / RESTART-NODE cascade visits, share a few
     cache lines of each array: the top five levels of a depth-6
     fan-out-4 tree are ids 0-340, 2.7 KB of a float array, where
     preorder ids spread them over the whole 44 KB;
   - every interior node is one node of a [Wf2q_kernel] (the same WF2Q+
     code [Wf2q_plus] runs as a one-node instance), whose per-(node,
     session) stamps live in flat arenas — the whole hierarchy's scheduler
     state is a handful of float arrays and a byte string;
   - every WF2Q+ operation is a direct static call into the kernel (no
     [Sched_intf.t] record of closures, no labeled-float boxing at closure
     boundaries: the kernel's primitives are inlined);
   - the topology (children, slots, leaf-to-root paths) is the shared
     [Hier_tree] index, so RESET-PATH and the W_n credit are array walks.

   Both engines run the kernel's eq. 27-29 code, so the generic and flat
   engines agree exactly — enforced by the qcheck lockstep table in
   test/lockstep.ml, and against the independent int-tick
   [Wf2q_plus_fixed] by the fixed-point row there.

   The epoch layer (DESIGN.md §15) runs the same procedures with the
   root's WF2Q+ synced in epochs. At [epoch = 1] (the default) nothing is
   staged and the engine is exactly the sequential one. At [epoch = k > 1],
   arrivals landing while the link transmits are staged in one buffer, in
   arrival order; at latest every k-1 departures, and always before the
   link would go idle, a sync flushes them through the normal ARRIVE /
   RESTART-NODE code with [flushing] set. That flag switches behaviour at
   exactly three boundary points, all touching the root's state: a restart
   reaching the root records a root-child proposal instead, an arrival
   backlogging a root child records one too, and a drop parks its handle
   until the proposals are in. The sync then applies the proposals to the
   root in canonical slot order, which gives the (k-1) * l_max / r lag
   bound of {!Theory.epoch_lag_bound}. *)

(* The buffer stages at most this many arrivals between syncs; a full
   buffer forces an early sync. *)
let stage_slots = 256

type t = {
  sim : Engine.Simulator.t;
  pool : Net.Packet_pool.t; (* every packet in this hierarchy lives here *)
  root : int;
  root_real : bool; (* root policy runs on simulation time (`Real_time) *)
  (* -- static topology: the index's arrays (see [Hier_tree]), read
     directly on the hot paths -- *)
  tree : Hier_tree.t;
  parent : int array; (* -1 at the root *)
  rate : float array; (* a copy: reopen may change a leaf's rate *)
  session_in_parent : int array; (* the index's slots; a leaf keeps its slot *)
  children_off : int array;
  children_len : int array; (* 0 for leaves *)
  child_ids : int array;
  names : string array;
  path_off : int array;
  path_len : int array;
  path_nodes : int array;
  (* -- per-node dynamic state -- *)
  tn : float array; (* reference time T_n, post-dated *)
  departed_bits : float array; (* W_n(0, now) *)
  busy : Bytes.t; (* '\001' while the node is in its parent's system *)
  logical : int array; (* leaf id owning this subtree's head packet, -1 *)
  logical_bits : float array; (* size of that head packet *)
  (* -- per-leaf physical queues -- *)
  queues : Net.Queues.t; (* queue n = leaf n's; interior ids' stay empty *)
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
  hooks : Hier_tree.hooks;
  link : Link.t;
  mutable drops : int;
  (* -- the epoch layer -- *)
  epoch : int;
  (* staged arrival handles, [stage_slots] of them. Staging (between
     syncs) and flushing (inside a sync) never overlap, so one array is
     enough. A flush compacts its dropped handles into the front of the
     buffer; the sync lifts them out before it fires any hook
     ([take_parked_drops]). *)
  staged : int array;
  mutable staged_len : int;
  mutable staged_drops : int;
  mutable since_sync : int; (* departures since the last sync *)
  mutable syncs : int;
  (* set for the length of a flush round only *)
  mutable flushing : bool;
  (* per-root-child boundary proposals recorded while flushing, applied
     (and cleared) by [apply_proposals] in slot order: '\000' none,
     'b' backlog, 'r' requeue, 'i' idle *)
  proposal : Bytes.t;
}

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
  let name = t.names.(leaf) in
  while not (Net.Queues.is_empty t.queues leaf) do
    let p = Net.Queues.pop_exn t.queues leaf in
    t.drops <- t.drops + 1;
    t.hooks.on_drop p ~leaf:name now;
    Net.Packet_pool.free t.pool p
  done

(* While flushing, the root is left alone: a root child's change of head
   is recorded for [apply_proposals] instead. *)
let[@inline] propose t child kind = Bytes.set t.proposal t.session_in_parent.(child) kind

let rec restart_node t n =
  let slot = p_select t n in
  if slot >= 0 then begin
    let child = t.child_ids.(t.children_off.(n) + slot) in
    let leaf = t.logical.(child) in
    if leaf < 0 then
      invalid_arg "Hier_flat: policy selected a child with empty logical queue";
    let bits = t.logical_bits.(child) in
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
    (* the wire packet stays at its leaf's queue head until RESET-PATH pops it *)
    if leaf >= 0 then Link.start t.link (Net.Queues.peek_exn t.queues leaf)
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
    if t.staged_len > 0 && t.since_sync >= t.epoch - 1 then sync_now t
  end;
  let leaf = Net.Packet_pool.flow t.pool pkt in
  let bits = Net.Packet_pool.size_bits t.pool pkt in
  (* account W_n along the precomputed leaf-to-root path *)
  let off = t.path_off.(leaf) and len = t.path_len.(leaf) in
  for k = 0 to len - 1 do
    let n = t.path_nodes.(off + k) in
    t.departed_bits.(n) <- t.departed_bits.(n) +. bits
  done;
  t.hooks.on_depart pkt ~leaf:t.names.(leaf) now;
  reset_path t leaf;
  (* the handle outlives RESET-PATH (which pops it from the leaf queue) and
     every callback; only now is the slot safe to recycle *)
  Net.Packet_pool.free t.pool pkt;
  (* never leave the link idle with staged work: the sequential schedule
     would have started one of those packets already *)
  if t.epoch > 1 && (not (Link.busy t.link)) && t.staged_len > 0 then sync_now t

(* RESET-PATH: clear the logical queues down the transmitted packet's path
   (it IS the active path — every logical head on it is this packet),
   dequeue at the leaf, then restart upward. *)
and reset_path t leaf =
  let off = t.path_off.(leaf) and len = t.path_len.(leaf) in
  for k = len - 1 downto 0 do
    let n = t.path_nodes.(off + k) in
    t.logical.(n) <- -1
  done;
  Net.Queues.drop_head t.queues leaf;
  let q = t.parent.(leaf) in
  (match Bytes.get t.lifecycle leaf with
  | '\002' ->
    (* a `Drop close was deferred while this leaf's head held the wire:
       discard the rest of the queue and finish the close now *)
    drop_leaf_queue t leaf;
    p_set_idle t q ~child:leaf;
    Bytes.set t.lifecycle leaf '\003'
  | state ->
    if not (Net.Queues.is_empty t.queues leaf) then begin
      let next = Net.Queues.peek_exn t.queues leaf in
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
  if not (Net.Queues.push t.queues leaf pkt) then begin
    if t.flushing then begin
      (* park the handle at the front of the staging buffer, behind the
         arrivals already flushed; [apply_proposals] counts it, fires
         [on_drop] and frees it after the round *)
      t.staged.(t.staged_drops) <- pkt;
      t.staged_drops <- t.staged_drops + 1
    end
    else begin
      t.drops <- t.drops + 1;
      Log.debug (fun m ->
          m "drop at leaf %s: %g bits, queue %g bits full" t.names.(leaf)
            (Net.Packet_pool.size_bits t.pool pkt)
            (Net.Queues.bits t.queues leaf));
      t.hooks.on_drop pkt ~leaf:t.names.(leaf) (Array.unsafe_get t.now_cache 0);
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

and sync_now t =
  t.since_sync <- 0;
  let n = t.staged_len in
  if n > 0 then begin
    t.staged_len <- 0;
    t.syncs <- t.syncs + 1;
    t.flushing <- true;
    for i = 0 to n - 1 do
      let pkt = t.staged.(i) in
      arrive t pkt ~leaf:(Net.Packet_pool.flow t.pool pkt)
    done;
    t.flushing <- false;
    apply_proposals t
  end

and apply_proposals t =
  let dropped = take_parked_drops t in
  (* canonical slot order, so the root-side heap insertion order — and with
     it every tie-break — is independent of the staging order *)
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
    t.hooks.on_drop p
      ~leaf:t.names.(Net.Packet_pool.flow t.pool p)
      (Net.Packet_pool.arrival t.pool p);
    Net.Packet_pool.free t.pool p
  done

(* Lifts the flush round's parked drops out of the staging buffer, in
   staging order, before any hook can run: a hook may inject and start a
   nested sync, which must find staged arrivals only. The round left the
   staged count at 0, so nothing sits behind the drops. *)
and take_parked_drops t =
  let dropped = Array.sub t.staged 0 t.staged_drops in
  t.staged_drops <- 0;
  dropped

(* Lifecycle operations and state accessors run an epoch boundary first, so
   they observe every staged arrival (a no-op at epoch 1). *)
let sync_if_staged t =
  if t.epoch > 1 && t.staged_len > 0 then begin
    Array.unsafe_set t.now_cache 0 (Engine.Simulator.now t.sim);
    sync_now t
  end

(* Called from [inject_at], which has refreshed [now_cache]. *)
let stage t pkt =
  (* a full buffer is an early epoch boundary, which empties it; its drop
     hooks may stage a full buffer again *)
  while t.staged_len = stage_slots do
    sync_now t
  done;
  let n = t.staged_len in
  t.staged.(n) <- pkt;
  t.staged_len <- n + 1

(* -- Construction --------------------------------------------------------- *)

let create ~sim ~spec ?(root_clock = `Real_time) ?on_depart ?on_drop
    ?(burst_max = 1) ?(epoch = 1) () =
  if epoch < 1 then invalid_arg "Hier_flat.create: epoch must be >= 1";
  let tree = Hier_tree.create spec in
  let n_nodes = Hier_tree.node_count tree in
  let root = 0 in
  let rate = Array.copy tree.rate in
  (* one kernel node per node, with one slot per child *)
  let k = K.create ~rate ~slots:tree.children_len in
  for id = 1 to n_nodes - 1 do
    K.reset_slot k tree.parent.(id) tree.slot.(id) ~rate:rate.(id)
  done;
  let pool = Net.Packet_pool.create () in
  let link = Link.create ~sim ~pool ~rate:rate.(root) ~burst_max in
  let t =
    {
      sim;
      pool;
      root;
      root_real = (root_clock = `Real_time);
      tree;
      parent = tree.parent;
      rate;
      session_in_parent = tree.slot;
      children_off = tree.children_off;
      children_len = tree.children_len;
      child_ids = tree.child_ids;
      names = tree.names;
      path_off = tree.path_off;
      path_len = tree.path_len;
      path_nodes = tree.path_nodes;
      tn = Array.make n_nodes 0.0;
      departed_bits = Array.make n_nodes 0.0;
      busy = Bytes.make n_nodes '\000';
      logical = Array.make n_nodes (-1);
      logical_bits = Array.make n_nodes 0.0;
      queues = Hier_tree.make_queues tree ~pool;
      next_seq = Array.make n_nodes 1;
      lifecycle = Bytes.make n_nodes '\000';
      k;
      now_cache = [| 0.0 |];
      hooks = Hier_tree.hooks tree ~sim ~pool ~link ?on_depart ?on_drop ();
      link;
      drops = 0;
      epoch;
      staged = (if epoch > 1 then Array.make stage_slots (-1) else [||]);
      staged_len = 0;
      staged_drops = 0;
      since_sync = 0;
      syncs = 0;
      flushing = false;
      proposal = Bytes.make tree.children_len.(root) '\000';
    }
  in
  Link.set_complete t.link (complete_transmission t);
  Log.info (fun m ->
      m "created flat H-WF2Q+ server: %d nodes, %d leaves, root rate %a, epoch %d"
        n_nodes (List.length tree.leaves) Engine.Units.pp_rate rate.(root) epoch);
  t

let epoch t = t.epoch
let sync_rounds t = t.syncs

(* -- Public operations ---------------------------------------------------- *)

let pool t = t.pool
include Hier_tree.Surface (struct
  type engine = t

  let index t = t.tree
  let hooks t = t.hooks
end)

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
  if t.epoch > 1 && (Link.busy t.link || t.staged_len > 0) then stage t pkt
  else arrive t pkt ~leaf;
  pkt

let inject_one t ~mark ~leaf ~size_bits =
  let now = Engine.Simulator.now t.sim in
  Array.unsafe_set t.now_cache 0 now;
  inject_at t ~mark ~leaf ~size_bits ~now

let inject ?(mark = 0) t ~(leaf : Hier_tree.leaf) ~size_bits =
  inject_one t ~mark ~leaf:(leaf :> int) ~size_bits

let inject_many ?(mark = 0) t ~(leaf : Hier_tree.leaf) ~size_bits ~count =
  (* batched arrivals stamped with one clock read (the clock cannot move
     during injection, so stamps match [count] separate injects bitwise);
     after the first packet the leaf has a head, so each further packet is
     one queue push + one (observer-only) arrive *)
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

let leaf_state t ~(leaf : Hier_tree.leaf) =
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
let close_leaf t ~(leaf : Hier_tree.leaf) ~policy =
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
      if Link.in_flight t.link = Net.Queues.peek_exn t.queues leaf then
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
            if !m = t.root then walking := false else m := t.parent.(!m)
          end
          else walking := false
        done;
        K.remove t.k q t.session_in_parent.(leaf);
        Bytes.set t.lifecycle leaf '\003';
        if t.logical.(q) < 0 then restart_node t q
      end

let reopen_leaf ?rate t ~(leaf : Hier_tree.leaf) =
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

let queue_bits t ~(leaf : Hier_tree.leaf) =
  sync_if_staged t;
  let leaf = (leaf :> int) in
  if t.children_len.(leaf) <> 0 then invalid_arg "Hier_flat.queue_bits: not a leaf";
  Net.Queues.bits t.queues leaf

let departed_bits t ~node =
  sync_if_staged t;
  t.departed_bits.(Hier_tree.node_id t.tree node)

let ref_time t ~node =
  sync_if_staged t;
  t.tn.(Hier_tree.node_id t.tree node)

let node_virtual_time t ~node =
  sync_if_staged t;
  let id = Hier_tree.node_id t.tree node in
  if t.children_len.(id) = 0 then
    invalid_arg "Hier_flat.node_virtual_time: leaf has no policy";
  Array.unsafe_set t.now_cache 0 (Engine.Simulator.now t.sim);
  K.linear_v t.k id ~now:(node_now t id)

let link_busy t = Link.busy t.link
let drops t =
  sync_if_staged t;
  t.drops

(* reads without syncing: counting must not move the schedule *)
let held_packets t = Net.Queues.total_length t.queues + t.staged_len

let set_burst_max t n = Link.set_burst_max t.link n
let burst_max t = Link.burst_max t.link

(* -- Observability -------------------------------------------------------- *)

(* At epoch > 1 a staged arrival's backlog/requeue events would fire at
   the sync, not when the packet arrived. *)
let check_observer_epoch t fn observer =
  if t.epoch > 1 && Option.is_some observer then
    invalid_arg (Printf.sprintf "Hier_flat.%s: observers require epoch = 1" fn)

let set_node_observer_id t ~node observer =
  check_observer_epoch t "set_node_observer_id" observer;
  if node < 0 || node >= Hier_tree.node_count t.tree || t.children_len.(node) = 0 then
    invalid_arg "Hier_flat.set_node_observer_id: not an interior node";
  K.set_observer t.k node observer

let set_node_observer t ~node observer =
  set_node_observer_id t ~node:(Hier_tree.node_id t.tree node) observer
