open Sched

let log_src = Logs.Src.create "hpfq.hier" ~doc:"H-PFQ hierarchical server"

module Log = (val Logs.src_log log_src : Logs.LOG)

type leaf = int

type kind =
  | Leaf_node of { mutable next_seq : int } (* its queue: [queues]' queue [id] *)
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
  name : string;
  mutable rate : float;
  level : int;
  parent : int; (* -1 for root *)
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
  (* Each leaf's leaf-to-root path (leaf first, root last), precomputed at
     create: the W_n credit walk in [complete_transmission] runs once per
     transmitted packet, and an array iteration beats re-deriving the path
     by parent-chasing recursion every time. Interior ids hold [||]. *)
  paths : int array array;
  root : int;
  by_name : (string, int) Hashtbl.t;
  leaf_list : (string * int) list;
  root_clock : [ `Real_time | `Reference_time ];
  (* Hooks are handle-based internally; the boxed [Net.Packet.t] view is
     materialised only inside the compat wrappers installed by
     [add_depart_hook] and friends. *)
  mutable on_depart : Net.Packet_pool.handle -> leaf:string -> float -> unit;
  mutable on_drop : Net.Packet_pool.handle -> leaf:string -> float -> unit;
  mutable on_transmit_start : Net.Packet_pool.handle -> leaf:string -> float -> unit;
  link : Link.t;
  mutable drops : int;
}

let uniform factory ~level:_ ~name:_ ~rate = factory.Sched_intf.make ~rate

let nop_leaf_cb _ ~leaf:_ _ = ()

let is_root t n = n.id = t.root

(* "now" as seen by node [n]'s own policy: its reference time, except that
   the root may run on real time (see .mli). *)
let node_now t n =
  if is_root t n && t.root_clock = `Real_time then Engine.Simulator.now t.sim
  else t.tn.(n.id)

let policy_of n =
  match n.kind with
  | Interior { policy } -> policy
  | Leaf_node _ -> invalid_arg "Hier: leaf has no policy"

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
      let q = t.nodes.(n.parent) in
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
      let q = t.nodes.(n.parent) in
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
  let leaf = t.nodes.(Net.Packet_pool.flow t.pool pkt) in
  let path = t.paths.(leaf.id) in
  let bits = Net.Packet_pool.size_bits t.pool pkt in
  for k = 0 to Array.length path - 1 do
    t.departed_bits.(path.(k)) <- t.departed_bits.(path.(k)) +. bits
  done;
  t.on_depart pkt ~leaf:leaf.name now;
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
    | Leaf_node _ ->
      if Net.Queues.is_empty t.queues n.id then
        invalid_arg "Hier: transmitted packet missing from its leaf queue";
      Net.Queues.drop_head t.queues n.id;
      let q = t.nodes.(n.parent) in
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
    t.on_drop p ~leaf:n.name now;
    Net.Packet_pool.free t.pool p
  done

let create ~sim ~spec ~make_policy ?(root_clock = `Real_time) ?on_depart ?on_drop
    ?(burst_max = 1) () =
  (match Class_tree.validate spec with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Hier.create: invalid tree: " ^ String.concat "; " errors));
  let pool = Net.Packet_pool.create () in
  let queues = Net.Queues.create ~pool () in
  let nodes = ref [] in
  let counter = ref 0 in
  let by_name = Hashtbl.create 16 in
  let leaf_list = ref [] in
  let rec build ~level ~parent spec =
    let id = !counter in
    incr counter;
    let name = Class_tree.name spec and rate = Class_tree.rate spec in
    (* one queue per node, added in id order, so queue [id] is node
       [id]'s; an interior node's stays empty *)
    let capacity_bits =
      match spec with
      | Class_tree.Leaf { queue_capacity_bits; _ } -> queue_capacity_bits
      | Class_tree.Node _ -> None
    in
    ignore (Net.Queues.add ?capacity_bits queues : int);
    let kind =
      match spec with
      | Class_tree.Leaf _ ->
        leaf_list := (name, id) :: !leaf_list;
        Leaf_node { next_seq = 1 }
      | Class_tree.Node _ -> Interior { policy = make_policy ~level ~name ~rate }
    in
    let n =
      {
        id;
        name;
        rate;
        level;
        parent;
        children = [||];
        kind;
        session_in_parent = -1;
        handle_in_parent = Session_handle.of_int_unsafe (-1);
        lifecycle = `Open;
        busy = false;
        logical = no_pkt;
        active_child = -1;
      }
    in
    nodes := n :: !nodes;
    Hashtbl.replace by_name name id;
    let child_ids =
      List.map (fun c -> (build ~level:(level + 1) ~parent:id c).id) (Class_tree.children spec)
    in
    n.children <- Array.of_list child_ids;
    n
  in
  let root_node = build ~level:0 ~parent:(-1) spec in
  let arr = Array.make !counter root_node in
  List.iter (fun n -> arr.(n.id) <- n) !nodes;
  (* register each child as a session of its parent's policy *)
  Array.iter
    (fun n ->
      match n.kind with
      | Interior { policy } ->
        Array.iter
          (fun cid ->
            let child = arr.(cid) in
            let h = policy.Sched_intf.open_session ~rate:child.rate in
            child.handle_in_parent <- h;
            child.session_in_parent <- policy.Sched_intf.session_of_handle h)
          n.children
      | Leaf_node _ -> ())
    arr;
  Log.info (fun m ->
      m "created H-PFQ server: %d nodes, %d leaves, root rate %a" !counter
        (List.length !leaf_list) Engine.Units.pp_rate root_node.rate);
  let paths = Array.make !counter [||] in
  Array.iter
    (fun n ->
      match n.kind with
      | Interior _ -> ()
      | Leaf_node _ ->
        let path = Array.make (n.level + 1) n.id in
        let m = ref n in
        for k = 0 to n.level do
          path.(k) <- !m.id;
          if !m.parent >= 0 then m := arr.(!m.parent)
        done;
        paths.(n.id) <- path)
    arr;
  let t =
    {
      sim;
      pool;
      queues;
      nodes = arr;
      tn = Array.make !counter 0.0;
      departed_bits = Array.make !counter 0.0;
      paths;
      root = root_node.id;
      by_name;
      leaf_list = List.rev !leaf_list;
      root_clock;
      on_depart = nop_leaf_cb;
      on_drop = nop_leaf_cb;
      on_transmit_start = nop_leaf_cb;
      link = Link.create ~sim ~pool ~rate:root_node.rate ~burst_max;
      drops = 0;
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
    t.on_drop <- (fun h ~leaf now -> f (Net.Packet_pool.to_packet pool h) ~leaf now));
  Link.set_complete t.link (complete_transmission t);
  t

(* -- Public operations --------------------------------------------------- *)

let pool t = t.pool

let leaf_id t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> (
    match t.nodes.(id).kind with
    | Leaf_node _ -> id
    | Interior _ ->
      invalid_arg
        (Printf.sprintf "Hier.leaf_id: %S is an interior node, not a leaf" name))
  | None -> raise Not_found

let leaf_name t id = t.nodes.(id).name
let leaf_ids t = t.leaf_list
let unsafe_leaf_of_int (id : int) : leaf = id

(* -- Leaf lifecycle ------------------------------------------------------ *)

let leaf_state t ~leaf =
  match t.nodes.(leaf).lifecycle with
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
let close_leaf t ~leaf ~policy =
  let n = t.nodes.(leaf) in
  (match n.kind with
  | Leaf_node _ -> ()
  | Interior _ -> invalid_arg "Hier.close_leaf: not a leaf");
  (match n.lifecycle with
  | `Open -> ()
  | `Draining | `Drop_pending | `Closed ->
    invalid_arg "Hier.close_leaf: leaf already closed or closing");
  let q = t.nodes.(n.parent) in
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
            if not (is_root t m) then clear_up t.nodes.(m.parent)
          end
        in
        clear_up q;
        qp.Sched_intf.close_session ~now:q_now ~policy:`Drop n.handle_in_parent;
        n.lifecycle <- `Closed;
        (* if the parent lost its committed head, the restart cascade
           repairs it and every cleared ancestor above it *)
        if q.logical < 0 then restart_node t q
      end

let reopen_leaf ?rate t ~leaf =
  let n = t.nodes.(leaf) in
  (match n.kind with
  | Leaf_node _ -> ()
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
  let q = t.nodes.(n.parent) in
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

let inject ?(mark = 0) t ~leaf ~size_bits =
  let n = t.nodes.(leaf) in
  match n.kind with
  | Interior _ -> invalid_arg "Hier.inject: not a leaf"
  | Leaf_node _ when n.lifecycle <> `Open ->
    invalid_arg "Hier.inject: leaf is closed"
  | Leaf_node l ->
    let now = Engine.Simulator.now t.sim in
    let pkt =
      Net.Packet_pool.alloc ~mark t.pool ~flow:leaf ~seq:l.next_seq ~size_bits
        ~arrival:now
    in
    l.next_seq <- l.next_seq + 1;
    if not (Net.Queues.push t.queues leaf pkt) then begin
      t.drops <- t.drops + 1;
      Log.debug (fun m ->
          m "drop at leaf %s: %g bits, queue %g bits full" n.name size_bits
            (Net.Queues.bits t.queues leaf));
      t.on_drop pkt ~leaf:n.name now;
      Net.Packet_pool.free t.pool pkt;
      pkt
    end
    else begin
      let q = t.nodes.(n.parent) in
      let q_now = node_now t q in
      (policy_of q).Sched_intf.arrive ~now:q_now ~session:n.session_in_parent ~size_bits;
      if n.logical < 0 then begin
        (* ARRIVE lines 2-3: otherwise the subtree already has a head *)
        n.logical <- pkt;
        (policy_of q).Sched_intf.backlog ~now:q_now ~session:n.session_in_parent
          ~head_bits:size_bits;
        if not q.busy then restart_node t q
      end;
      pkt
    end

(* Batched arrival: [count] same-size packets stamped with a single clock
   read. The clock cannot move during injection, so the result is
   bit-identical to [count] separate injects — only the per-packet lookup
   and stamp overhead is hoisted. *)
let inject_many ?(mark = 0) t ~leaf ~size_bits ~count =
  if count < 0 then invalid_arg "Hier.inject_many: negative count";
  let n = t.nodes.(leaf) in
  match n.kind with
  | Interior _ -> invalid_arg "Hier.inject_many: not a leaf"
  | Leaf_node _ when n.lifecycle <> `Open ->
    invalid_arg "Hier.inject_many: leaf is closed"
  | Leaf_node l ->
    let now = Engine.Simulator.now t.sim in
    for _ = 1 to count do
      let pkt =
        Net.Packet_pool.alloc ~mark t.pool ~flow:leaf ~seq:l.next_seq ~size_bits
          ~arrival:now
      in
      l.next_seq <- l.next_seq + 1;
      if not (Net.Queues.push t.queues leaf pkt) then begin
        t.drops <- t.drops + 1;
        t.on_drop pkt ~leaf:n.name now;
        Net.Packet_pool.free t.pool pkt
      end
      else begin
        let q = t.nodes.(n.parent) in
        let q_now = node_now t q in
        (policy_of q).Sched_intf.arrive ~now:q_now ~session:n.session_in_parent
          ~size_bits;
        if n.logical < 0 then begin
          n.logical <- pkt;
          (policy_of q).Sched_intf.backlog ~now:q_now ~session:n.session_in_parent
            ~head_bits:size_bits;
          if not q.busy then restart_node t q
        end
      end
    done

let set_burst_max t n = Link.set_burst_max t.link n
let burst_max t = Link.burst_max t.link

let queue_bits t ~leaf =
  match t.nodes.(leaf).kind with
  | Leaf_node _ -> Net.Queues.bits t.queues leaf
  | Interior _ -> invalid_arg "Hier.queue_bits: not a leaf"

let node_by_name t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> t.nodes.(id)
  | None -> raise Not_found

let departed_bits t ~node = t.departed_bits.((node_by_name t node).id)
let ref_time t ~node = t.tn.((node_by_name t node).id)

let node_virtual_time t ~node =
  let n = node_by_name t node in
  (policy_of n).Sched_intf.virtual_time ~now:(node_now t n)

let link_busy t = Link.busy t.link
let drops t = t.drops
let held_packets t = Net.Queues.total_length t.queues

(* -- Observability ------------------------------------------------------- *)

let compose_leaf_cb f g =
  if f == nop_leaf_cb then g else fun pkt ~leaf now -> f pkt ~leaf now; g pkt ~leaf now

let add_depart_handle_hook t f = t.on_depart <- compose_leaf_cb t.on_depart f
let add_drop_handle_hook t f = t.on_drop <- compose_leaf_cb t.on_drop f
let add_transmit_start_handle_hook t f =
  t.on_transmit_start <- compose_leaf_cb t.on_transmit_start f;
  Link.set_on_start t.link (fun pkt ->
      t.on_transmit_start pkt
        ~leaf:t.nodes.(Net.Packet_pool.flow t.pool pkt).name
        (Engine.Simulator.now t.sim))

let boxed t f =
  fun h ~leaf now -> f (Net.Packet_pool.to_packet t.pool h) ~leaf now

let add_depart_hook t f = add_depart_handle_hook t (boxed t f)
let add_drop_hook t f = add_drop_handle_hook t (boxed t f)
let add_transmit_start_hook t f = add_transmit_start_handle_hook t (boxed t f)
let root_name t = t.nodes.(t.root).name
let node_name t id = t.nodes.(id).name

let iter_interior t f =
  Array.iter
    (fun n ->
      match n.kind with
      | Leaf_node _ -> ()
      | Interior { policy } ->
        f ~id:n.id ~name:n.name ~level:n.level ~children:n.children ~policy)
    t.nodes

let node_count t = Array.length t.nodes

let leaf_path t ~leaf =
  match t.nodes.(leaf).kind with
  | Leaf_node _ -> Array.copy t.paths.(leaf)
  | Interior _ -> invalid_arg "Hier.leaf_path: not a leaf"

let set_node_observer t ~node observer =
  let n = node_by_name t node in
  (policy_of n).Sched_intf.set_observer observer
