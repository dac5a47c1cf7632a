open Sched

let log_src = Logs.Src.create "hpfq.hier" ~doc:"H-PFQ hierarchical server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type leaf = Hier_tree.leaf

type kind =
  | Leaf_node (* its queue: [queues]' queue [id] *)
  | Interior of { policy : Sched_intf.t }

(* Leaf lifecycle: [`Draining] keeps its schedule place until the queue
   empties; [`Drop_pending] is a `Drop close requested while the leaf's
   head was on the wire — it completes at that packet's departure. *)
type lifecycle = [ `Open | `Draining | `Drop_pending | `Closed ]

(* [logical] holds the pool handle of the packet at the head of this
   subtree's logical queue, or [Net.Packet_pool.none]. A handle is an
   immediate int, so committing a head up the tree (RESTART-NODE line 12)
   is an int store — the option cell the boxed plane allocated per commit
   is gone. *)
type node = {
  id : int;
  mutable rate : float;
  (* slot -> child id: the index's slots at creation, then whatever slot
     the policy hands a reopened child (a non-recycling discipline hands
     a new one) *)
  mutable children : int array;
  kind : kind;
  mutable session_in_parent : int;
  mutable handle_in_parent : Session_handle.t;
  mutable lifecycle : lifecycle;
  mutable busy : bool;
  mutable logical : Net.Packet_pool.handle; (* Q_n: head of this subtree *)
  mutable active_child : int;               (* node id, -1 when none *)
}

type t = {
  sim : Engine.Simulator.t;
  pool : Net.Packet_pool.t; (* every packet in this hierarchy lives here *)
  queues : Net.Queues.t; (* queue n = leaf n's *)
  nodes : node array;
  (* Per-node reference clocks T_n and work counters W_n live in plain
     float arrays indexed by node id, not in the (mixed) node records:
     both are written on every packet along the whole leaf-to-root path,
     and mutable floats in a mixed record would box on each store. *)
  tn : float array;                         (* reference time T_n, post-dated *)
  departed_bits : float array;              (* W_n(0, now) *)
  next_seq : int array;                     (* a leaf's next packet seq *)
  (* the index's arrays, read directly on the hot paths *)
  parent : int array;
  names : string array;
  path_off : int array;
  path_len : int array;
  path_nodes : int array;
  root : int;
  root_clock : [ `Real_time | `Reference_time ];
  tree : Hier_tree.t;
  hooks : Hier_tree.hooks;
  link : Link.t;
  mutable drops : int;
}

let uniform factory ~level:_ ~name:_ ~rate = factory.Sched_intf.make ~rate

let is_root t n = n.id = t.root

(* "now" as seen by node [n]'s own policy: its reference time, except that
   the root may run on real time (see .mli). *)
let node_now t n =
  if is_root t n && t.root_clock = `Real_time then Engine.Simulator.now t.sim
  else t.tn.(n.id)

let policy_of n =
  match n.kind with
  | Interior { policy } -> policy
  | Leaf_node -> invalid_arg "Hier: leaf has no policy"

let no_pkt = Net.Packet_pool.none

(* -- The three pseudocode procedures ------------------------------------ *)

let rec restart_node t n =
  let policy = policy_of n in
  let now = node_now t n in
  match policy.Sched_intf.select ~now with
  | Some session ->
    let child = t.nodes.(n.children.(session)) in
    let pkt = child.logical in
    if pkt < 0 then
      invalid_arg "Hier: policy selected a child with empty logical queue";
    n.active_child <- child.id;
    n.logical <- pkt;
    let bits = Net.Packet_pool.size_bits t.pool pkt in
    (* RESTART-NODE line 13: post-date this node's reference clock *)
    t.tn.(n.id) <- t.tn.(n.id) +. (bits /. n.rate);
    let was_busy = n.busy in
    n.busy <- true;
    if is_root t n then start_transmission t
    else begin
      let q = t.nodes.(t.parent.(n.id)) in
      let q_now = node_now t q in
      (* the committed head is a fresh logical packet in the parent's system *)
      (policy_of q).Sched_intf.arrive ~now:q_now ~session:n.session_in_parent ~size_bits:bits;
      if was_busy then
        (* line 8: s_n <- f_n *)
        (policy_of q).Sched_intf.requeue ~now:q_now ~session:n.session_in_parent ~head_bits:bits
      else
        (* line 9: s_n <- max(f_n, V_q) *)
        (policy_of q).Sched_intf.backlog ~now:q_now ~session:n.session_in_parent ~head_bits:bits;
      (* line 17: keep restarting upward while the parent has no head *)
      if q.logical < 0 then restart_node t q
    end
  | None ->
    n.active_child <- -1;
    let was_busy = n.busy in
    n.busy <- false;
    if not (is_root t n) then begin
      let q = t.nodes.(t.parent.(n.id)) in
      if was_busy then
        (policy_of q).Sched_intf.set_idle ~now:(node_now t q) ~session:n.session_in_parent;
      if was_busy && q.logical < 0 then restart_node t q
    end

and start_transmission t =
  if not (Link.busy t.link) then begin
    let pkt = t.nodes.(t.root).logical in
    if pkt >= 0 then Link.start t.link pkt
  end

(* Transmission complete: the link has already cleared its busy flag. *)
and complete_transmission t pkt =
  let now = Engine.Simulator.now t.sim in
  (* account W_n along the transmitted packet's precomputed leaf-to-root path *)
  let leaf = Net.Packet_pool.flow t.pool pkt in
  let bits = Net.Packet_pool.size_bits t.pool pkt in
  let off = t.path_off.(leaf) in
  for k = off to off + t.path_len.(leaf) - 1 do
    let n = t.path_nodes.(k) in
    t.departed_bits.(n) <- t.departed_bits.(n) +. bits
  done;
  t.hooks.on_depart pkt ~leaf:t.names.(leaf) now;
  reset_path t;
  (* the departed packet's cell recycles only after its callbacks fired
     and RESET-PATH dequeued it from the leaf queue *)
  Net.Packet_pool.free t.pool pkt

(* RESET-PATH: walk down the active path clearing logical queues, dequeue
   the transmitted packet at its leaf, then restart upward. *)
and reset_path t =
  let rec descend n =
    n.logical <- no_pkt;
    match n.kind with
    | Interior _ ->
      let c = n.active_child in
      n.active_child <- -1;
      if c < 0 then invalid_arg "Hier: reset_path lost the active child";
      descend t.nodes.(c)
    | Leaf_node ->
      if Net.Queues.is_empty t.queues n.id then
        invalid_arg "Hier: transmitted packet missing from its leaf queue";
      Net.Queues.drop_head t.queues n.id;
      let q = t.nodes.(t.parent.(n.id)) in
      let q_now = node_now t q in
      (match n.lifecycle with
      | `Drop_pending ->
        (* a `Drop close was deferred while this leaf's head held the wire:
           discard the rest of the queue and finish the close now *)
        drop_queue t n;
        (policy_of q).Sched_intf.set_idle ~now:q_now ~session:n.session_in_parent;
        (policy_of q).Sched_intf.close_session ~now:q_now ~policy:`Drop
          n.handle_in_parent;
        n.lifecycle <- `Closed
      | `Open | `Draining | `Closed ->
        if not (Net.Queues.is_empty t.queues n.id) then begin
          let next = Net.Queues.peek_exn t.queues n.id in
          n.logical <- next;
          (policy_of q).Sched_intf.requeue ~now:q_now ~session:n.session_in_parent
            ~head_bits:(Net.Packet_pool.size_bits t.pool next)
        end
        else begin
          (* a draining leaf's pool slot frees inside the policy's set_idle *)
          (policy_of q).Sched_intf.set_idle ~now:q_now ~session:n.session_in_parent;
          if n.lifecycle = `Draining then n.lifecycle <- `Closed
        end);
      restart_node t q
  in
  descend t.nodes.(t.root)

and drop_queue t n =
  let now = Engine.Simulator.now t.sim in
  while not (Net.Queues.is_empty t.queues n.id) do
    let p = Net.Queues.pop_exn t.queues n.id in
    t.drops <- t.drops + 1;
    t.hooks.on_drop p ~leaf:t.names.(n.id) now;
    Net.Packet_pool.free t.pool p
  done

let create ~sim ~spec ~make_policy ?(root_clock = `Real_time) ?on_depart ?on_drop
    ?(burst_max = 1) () =
  let tree = Hier_tree.create spec in
  let n = Hier_tree.node_count tree in
  let pool = Net.Packet_pool.create () in
  let node id =
    let name = tree.names.(id) and rate = tree.rate.(id) in
    {
      id;
      rate;
      children =
        Array.sub tree.child_ids tree.children_off.(id) tree.children_len.(id);
      kind =
        (if Hier_tree.is_leaf tree id then Leaf_node
         else Interior { policy = make_policy ~level:tree.level.(id) ~name ~rate });
      session_in_parent = -1;
      handle_in_parent = Session_handle.of_int_unsafe (-1);
      lifecycle = `Open;
      busy = false;
      logical = no_pkt;
      active_child = -1;
    }
  in
  let nodes = Array.init n node in
  (* register each child as a session of its parent's policy *)
  Array.iter
    (fun n ->
      match n.kind with
      | Interior { policy } ->
        Array.iter
          (fun cid ->
            let child = nodes.(cid) in
            let h = policy.Sched_intf.open_session ~rate:child.rate in
            child.handle_in_parent <- h;
            child.session_in_parent <- policy.Sched_intf.session_of_handle h)
          n.children
      | Leaf_node -> ())
    nodes;
  Log.info (fun m ->
      m "created H-PFQ server: %d nodes, %d leaves, root rate %a" n
        (List.length tree.leaves) Engine.Units.pp_rate tree.rate.(0));
  let link = Link.create ~sim ~pool ~rate:tree.rate.(0) ~burst_max in
  let t =
    {
      sim;
      pool;
      queues = Hier_tree.make_queues tree ~pool;
      nodes;
      tn = Array.make n 0.0;
      departed_bits = Array.make n 0.0;
      next_seq = Array.make n 1;
      parent = tree.parent;
      names = tree.names;
      path_off = tree.path_off;
      path_len = tree.path_len;
      path_nodes = tree.path_nodes;
      root = 0;
      root_clock;
      tree;
      hooks = Hier_tree.hooks tree ~sim ~pool ~link ?on_depart ?on_drop ();
      link;
      drops = 0;
    }
  in
  Link.set_complete t.link (complete_transmission t);
  t

(* -- Public operations --------------------------------------------------- *)

let pool t = t.pool

include Hier_tree.Surface (struct
  type engine = t

  let index t = t.tree
  let hooks t = t.hooks
end)

(* -- Leaf lifecycle ------------------------------------------------------ *)

let leaf_state t ~(leaf : leaf) =
  match t.nodes.((leaf :> int)).lifecycle with
  | `Open -> `Open
  | `Draining | `Drop_pending -> `Closing
  | `Closed -> `Closed

(* CLOSE-LEAF. The subtle case is [`Drop] of a backlogged leaf whose head
   has already been committed up the tree: the head's handle may sit in
   the logical queue of every ancestor on the path (the chain built by
   RESTART-NODE line 12). Retract deterministically:

   + the packet on the wire is never recalled — that close defers to the
     packet's departure (handled by RESET-PATH);
   + otherwise, erase the committed chain top-down-stopping ancestors keep
     their heads (the walk stops at the first ancestor that committed a
     different packet), close the parent's session (which removes it from
     the parent's eligible/waiting structures), and RESTART the parent:
     the normal restart cascade re-selects a head at every cleared
     ancestor, issuing requeue/set_idle upward exactly as RESET-PATH does
     after a departure. *)
let close_leaf t ~(leaf : leaf) ~policy =
  let n = t.nodes.((leaf :> int)) in
  (match n.kind with
  | Leaf_node -> ()
  | Interior _ -> invalid_arg "Hier.close_leaf: not a leaf");
  (match n.lifecycle with
  | `Open -> ()
  | `Draining | `Drop_pending | `Closed ->
    invalid_arg "Hier.close_leaf: leaf already closed or closing");
  let q = t.nodes.(t.parent.(n.id)) in
  let qp = policy_of q in
  let q_now = node_now t q in
  let pkt = n.logical in
  if pkt < 0 then begin
    (* idle leaf: the parent's slot frees immediately *)
    qp.Sched_intf.close_session ~now:q_now ~policy n.handle_in_parent;
    n.lifecycle <- `Closed
  end
  else
    match policy with
    | `Drain ->
      qp.Sched_intf.close_session ~now:q_now ~policy:`Drain n.handle_in_parent;
      n.lifecycle <- `Draining
    | `Drop ->
      (* handle equality replaces the boxed plane's physical equality: a
         handle names one allocation, so [=] is exact identity *)
      let on_wire = Link.in_flight t.link = pkt in
      if on_wire then n.lifecycle <- `Drop_pending
      else begin
        drop_queue t n;
        n.logical <- no_pkt;
        (* erase the committed chain: every ancestor whose logical head IS
           this packet committed it via RESTART-NODE *)
        let rec clear_up m =
          if m.logical = pkt then begin
            m.logical <- no_pkt;
            m.active_child <- -1;
            if not (is_root t m) then clear_up t.nodes.(t.parent.(m.id))
          end
        in
        clear_up q;
        qp.Sched_intf.close_session ~now:q_now ~policy:`Drop n.handle_in_parent;
        n.lifecycle <- `Closed;
        (* if the parent lost its committed head, the restart cascade
           repairs it and every cleared ancestor above it *)
        if q.logical < 0 then restart_node t q
      end

let reopen_leaf ?rate t ~(leaf : leaf) =
  let n = t.nodes.((leaf :> int)) in
  (match n.kind with
  | Leaf_node -> ()
  | Interior _ -> invalid_arg "Hier.reopen_leaf: not a leaf");
  (match n.lifecycle with
  | `Closed -> ()
  | `Open -> invalid_arg "Hier.reopen_leaf: leaf is open"
  | `Draining | `Drop_pending -> invalid_arg "Hier.reopen_leaf: close still in progress");
  (match rate with
  | Some r ->
    if r <= 0.0 then invalid_arg "Hier.reopen_leaf: rate must be positive";
    n.rate <- r
  | None -> ());
  let q = t.nodes.(t.parent.(n.id)) in
  let qp = policy_of q in
  let h = qp.Sched_intf.open_session ~rate:n.rate in
  let slot = qp.Sched_intf.session_of_handle h in
  (* the policy may hand back any free slot (or, without recycling, a brand
     new one); keep the parent's slot -> child map in sync *)
  if slot >= Array.length q.children then begin
    let grown = Array.make (slot + 1) (-1) in
    Array.blit q.children 0 grown 0 (Array.length q.children);
    q.children <- grown
  end;
  q.children.(slot) <- n.id;
  n.session_in_parent <- slot;
  n.handle_in_parent <- h;
  n.lifecycle <- `Open

let open_leaf ~fn t (leaf : leaf) =
  let n = t.nodes.((leaf :> int)) in
  match n.kind with
  | Interior _ -> invalid_arg (fn ^ ": not a leaf")
  | Leaf_node when n.lifecycle <> `Open -> invalid_arg (fn ^ ": leaf is closed")
  | Leaf_node -> n

(* ARRIVE: a packet stamped [now] joins open leaf [n]'s queue. *)
let arrive t n ~mark ~size_bits ~now =
  let leaf = n.id in
  let pkt =
    Net.Packet_pool.alloc ~mark t.pool ~flow:leaf ~seq:t.next_seq.(leaf) ~size_bits ~arrival:now
  in
  t.next_seq.(leaf) <- t.next_seq.(leaf) + 1;
  if not (Net.Queues.push t.queues leaf pkt) then begin
    t.drops <- t.drops + 1;
    Log.debug (fun m ->
        m "drop at leaf %s: %g bits, queue %g bits full" t.names.(leaf) size_bits
          (Net.Queues.bits t.queues leaf));
    t.hooks.on_drop pkt ~leaf:t.names.(leaf) now;
    Net.Packet_pool.free t.pool pkt
  end
  else begin
    let q = t.nodes.(t.parent.(leaf)) in
    let q_now = node_now t q in
    (policy_of q).Sched_intf.arrive ~now:q_now ~session:n.session_in_parent ~size_bits;
    if n.logical < 0 then begin
      (* ARRIVE lines 2-3: otherwise the subtree already has a head *)
      n.logical <- pkt;
      (policy_of q).Sched_intf.backlog ~now:q_now ~session:n.session_in_parent
        ~head_bits:size_bits;
      if not q.busy then restart_node t q
    end
  end;
  pkt

let inject ?(mark = 0) t ~leaf ~size_bits =
  let n = open_leaf ~fn:"Hier.inject" t leaf in
  arrive t n ~mark ~size_bits ~now:(Engine.Simulator.now t.sim)

(* Batched arrival: [count] same-size packets stamped with a single clock
   read. The clock cannot move during injection, so the result is
   bit-identical to [count] separate injects — only the per-packet lookup
   and stamp overhead is hoisted. *)
let inject_many ?(mark = 0) t ~leaf ~size_bits ~count =
  if count < 0 then invalid_arg "Hier.inject_many: negative count";
  let n = open_leaf ~fn:"Hier.inject_many" t leaf in
  let now = Engine.Simulator.now t.sim in
  for _ = 1 to count do
    ignore (arrive t n ~mark ~size_bits ~now)
  done

let set_burst_max t n = Link.set_burst_max t.link n
let burst_max t = Link.burst_max t.link

let queue_bits t ~(leaf : leaf) =
  match t.nodes.((leaf :> int)).kind with
  | Leaf_node -> Net.Queues.bits t.queues (leaf :> int)
  | Interior _ -> invalid_arg "Hier.queue_bits: not a leaf"

let node_by_name t name = t.nodes.(Hier_tree.node_id t.tree name)
let departed_bits t ~node = t.departed_bits.((node_by_name t node).id)
let ref_time t ~node = t.tn.((node_by_name t node).id)

let node_virtual_time t ~node =
  let n = node_by_name t node in
  (policy_of n).Sched_intf.virtual_time ~now:(node_now t n)

let link_busy t = Link.busy t.link
let drops t = t.drops
let held_packets t = Net.Queues.total_length t.queues

(* -- Observability ------------------------------------------------------- *)

let set_node_observer_id t ~node observer =
  (policy_of t.nodes.(node)).Sched_intf.set_observer observer
