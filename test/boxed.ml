(* The boxed oracle of the lockstep harness: a verbatim pre-pool snapshot
   of [Net.Fifo] (a boxed [Packet.t Queue.t]) and of the generic [Hier]
   engine built on it, frozen as the reference the pooled packet plane
   must replay byte for byte. Not to be edited: it is the oracle. *)

module Bfifo = struct
  [@@@ocaml.warning "-32"]

  type t = {
    q : Net.Packet.t Queue.t;
    capacity_bits : float;
    mutable bits : float;
    mutable drops : int;
  }
  
  let create ?(capacity_bits = infinity) () =
    if capacity_bits <= 0.0 then invalid_arg "Fifo.create: capacity must be positive";
    { q = Queue.create (); capacity_bits; bits = 0.0; drops = 0 }
  
  let push t p =
    if t.bits +. p.Net.Packet.size_bits > t.capacity_bits then begin
      t.drops <- t.drops + 1;
      false
    end
    else begin
      Queue.push p t.q;
      t.bits <- t.bits +. p.Net.Packet.size_bits;
      true
    end
  
  let pop t =
    match Queue.take_opt t.q with
    | None -> None
    | Some p ->
      t.bits <- t.bits -. p.Net.Packet.size_bits;
      if Queue.is_empty t.q then t.bits <- 0.0;
      Some p
  
  let peek t = Queue.peek_opt t.q
  let peek_exn t = Queue.peek t.q
  
  let drop_head t =
    let p = Queue.pop t.q in
    t.bits <- t.bits -. p.Net.Packet.size_bits;
    if Queue.is_empty t.q then t.bits <- 0.0
  let length t = Queue.length t.q
  let bits t = t.bits
  let is_empty t = Queue.is_empty t.q
  let drops t = t.drops
  
  let clear t =
    Queue.clear t.q;
    t.bits <- 0.0
end

module Bhier = struct
  [@@@ocaml.warning "-32-69"]

  module Class_tree = Hpfq.Class_tree
  open Sched

  
  let log_src = Logs.Src.create "test.boxed.hier" ~doc:"H-PFQ hierarchical server"
  
  module Log = (val Logs.src_log log_src : Logs.LOG)
  
  type leaf = int
  
  type kind =
    | Leaf_node of { fifo : Bfifo.t; mutable next_seq : int }
    | Interior of { policy : Sched_intf.t }
  
  (* Leaf lifecycle: [`Draining] keeps its schedule place until the queue
     empties; [`Drop_pending] is a `Drop close requested while the leaf's
     head was on the wire — it completes at that packet's departure. *)
  type lifecycle = [ `Open | `Draining | `Drop_pending | `Closed ]
  
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
    mutable logical : Net.Packet.t option; (* Q_n: head of this subtree *)
    mutable active_child : int;               (* node id, -1 when none *)
  }
  
  type t = {
    sim : Engine.Simulator.t;
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
    mutable on_depart : Net.Packet.t -> leaf:string -> float -> unit;
    mutable on_drop : Net.Packet.t -> leaf:string -> float -> unit;
    mutable on_transmit_start : Net.Packet.t -> leaf:string -> float -> unit;
    mutable link_busy : bool;
    mutable drops : int;
    (* The single packet on the wire (the link serves one packet at a time),
       plus a preallocated completion callback so steady-state transmission
       scheduling allocates nothing per packet. *)
    mutable in_flight : Net.Packet.t option;
    mutable complete_cb : unit -> unit;
    (* Burst-drain state (see Server): while a drain activation runs
       ([in_batch]), [start_transmission] records its commitment here
       instead of scheduling the completion event — [in_flight] already
       carries the committed packet, so only the due time needs a slot. *)
    mutable burst_max : int;
    mutable in_batch : bool;
    mutable batch_has : bool;
    mutable batch_due : float;
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
  
  (* -- The three pseudocode procedures ------------------------------------ *)
  
  let rec restart_node t n =
    let policy = policy_of n in
    let now = node_now t n in
    match policy.Sched_intf.select ~now with
    | Some session ->
      let child = t.nodes.(n.children.(session)) in
      let pkt =
        match child.logical with
        | Some p -> p
        | None -> invalid_arg "Hier: policy selected a child with empty logical queue"
      in
      n.active_child <- child.id;
      n.logical <- Some pkt;
      (* RESTART-NODE line 13: post-date this node's reference clock *)
      t.tn.(n.id) <- t.tn.(n.id) +. (pkt.Net.Packet.size_bits /. n.rate);
      let was_busy = n.busy in
      n.busy <- true;
      if is_root t n then start_transmission t
      else begin
        let q = t.nodes.(n.parent) in
        let q_now = node_now t q in
        let bits = pkt.Net.Packet.size_bits in
        (* the committed head is a fresh logical packet in the parent's system *)
        (policy_of q).Sched_intf.arrive ~now:q_now ~session:n.session_in_parent ~size_bits:bits;
        if was_busy then
          (* line 8: s_n <- f_n *)
          (policy_of q).Sched_intf.requeue ~now:q_now ~session:n.session_in_parent ~head_bits:bits
        else
          (* line 9: s_n <- max(f_n, V_q) *)
          (policy_of q).Sched_intf.backlog ~now:q_now ~session:n.session_in_parent ~head_bits:bits;
        (* line 17: keep restarting upward while the parent has no head *)
        if q.logical = None then restart_node t q
      end
    | None ->
      n.active_child <- -1;
      let was_busy = n.busy in
      n.busy <- false;
      if not (is_root t n) then begin
        let q = t.nodes.(n.parent) in
        if was_busy then
          (policy_of q).Sched_intf.set_idle ~now:(node_now t q) ~session:n.session_in_parent;
        if was_busy && q.logical = None then restart_node t q
      end
  
  and start_transmission t =
    if not t.link_busy then begin
      let root = t.nodes.(t.root) in
      match root.logical with
      | None -> ()
      | Some pkt ->
        t.link_busy <- true;
        (* reuse [root.logical]'s option cell and the preallocated callback:
           no closure or option allocation per transmitted packet *)
        t.in_flight <- root.logical;
        if t.on_transmit_start != nop_leaf_cb then
          t.on_transmit_start pkt ~leaf:t.nodes.(pkt.Net.Packet.flow).name
            (Engine.Simulator.now t.sim);
        let duration = pkt.Net.Packet.size_bits /. root.rate in
        (* [now +. duration] is the exact float [schedule_after ~delay]
           computes — batched and per-packet fire times must agree bitwise. *)
        let due = Engine.Simulator.now t.sim +. duration in
        if t.in_batch then begin
          t.batch_has <- true;
          t.batch_due <- due
        end
        else ignore (Engine.Simulator.schedule t.sim ~at:due t.complete_cb)
    end
  
  (* One event activation drains up to [burst_max] consecutive departures.
     The next departure runs inline only when it would have been the very
     next event anyway: within the burst cap, not past the horizon of the
     enclosing [run ~until] ([<=]: an event exactly at the horizon fires),
     and strictly before the earliest pending event (at equal times the
     pending event carries the smaller schedule seq and wins the FIFO
     tie-break, so it must fire first). *)
  and drain t pkt0 =
    let sim = t.sim in
    let steps = ref 1 in
    let pkt = ref pkt0 in
    let continue = ref true in
    while !continue do
      t.in_batch <- true;
      t.batch_has <- false;
      complete_transmission t !pkt;
      t.in_batch <- false;
      if not t.batch_has then continue := false
      else begin
        let due = t.batch_due in
        if
          !steps < t.burst_max
          && due <= Engine.Simulator.run_horizon sim
          && due < Engine.Simulator.peek_time sim
        then begin
          Engine.Simulator.advance_clock sim ~to_:due;
          incr steps;
          match t.in_flight with
          | Some p ->
            t.in_flight <- None;
            pkt := p
          | None -> invalid_arg "Hier: drain lost the in-flight packet"
        end
        else begin
          ignore (Engine.Simulator.schedule sim ~at:due t.complete_cb);
          continue := false
        end
      end
    done
  
  and complete_transmission t pkt =
    t.link_busy <- false;
    let now = Engine.Simulator.now t.sim in
    (* account W_n along the transmitted packet's precomputed leaf-to-root path *)
    let leaf = t.nodes.(pkt.Net.Packet.flow) in
    let path = t.paths.(leaf.id) in
    let bits = pkt.Net.Packet.size_bits in
    for k = 0 to Array.length path - 1 do
      t.departed_bits.(path.(k)) <- t.departed_bits.(path.(k)) +. bits
    done;
    t.on_depart pkt ~leaf:leaf.name now;
    reset_path t
  
  (* RESET-PATH: walk down the active path clearing logical queues, dequeue
     the transmitted packet at its leaf, then restart upward. *)
  and reset_path t =
    let rec descend n =
      n.logical <- None;
      match n.kind with
      | Interior _ ->
        let c = n.active_child in
        n.active_child <- -1;
        if c < 0 then invalid_arg "Hier: reset_path lost the active child";
        descend t.nodes.(c)
      | Leaf_node { fifo; _ } ->
        (match Bfifo.pop fifo with
        | Some _served -> ()
        | None -> invalid_arg "Hier: transmitted packet missing from its leaf queue");
        let q = t.nodes.(n.parent) in
        let q_now = node_now t q in
        (match n.lifecycle with
        | `Drop_pending ->
          (* a `Drop close was deferred while this leaf's head held the wire:
             discard the rest of the queue and finish the close now *)
          drop_queue t n fifo;
          (policy_of q).Sched_intf.set_idle ~now:q_now ~session:n.session_in_parent;
          (policy_of q).Sched_intf.close_session ~now:q_now ~policy:`Drop
            n.handle_in_parent;
          n.lifecycle <- `Closed
        | `Open | `Draining | `Closed -> (
          match Bfifo.peek fifo with
          | Some next ->
            n.logical <- Some next;
            (policy_of q).Sched_intf.requeue ~now:q_now ~session:n.session_in_parent
              ~head_bits:next.Net.Packet.size_bits
          | None ->
            (* a draining leaf's pool slot frees inside the policy's set_idle *)
            (policy_of q).Sched_intf.set_idle ~now:q_now ~session:n.session_in_parent;
            if n.lifecycle = `Draining then n.lifecycle <- `Closed));
        restart_node t q
    in
    descend t.nodes.(t.root)
  
  and drop_queue t n fifo =
    let now = Engine.Simulator.now t.sim in
    let rec loop () =
      match Bfifo.pop fifo with
      | Some p ->
        t.drops <- t.drops + 1;
        t.on_drop p ~leaf:n.name now;
        loop ()
      | None -> ()
    in
    loop ()
  
  let create ~sim ~spec ~make_policy ?(root_clock = `Real_time) ?on_depart ?on_drop
      ?(burst_max = 1) () =
    let on_depart = Option.value on_depart ~default:nop_leaf_cb in
    let on_drop = Option.value on_drop ~default:nop_leaf_cb in
    if burst_max < 1 then invalid_arg "Hier.create: burst_max must be >= 1";
    (match Class_tree.validate spec with
    | Ok () -> ()
    | Error errors ->
      invalid_arg ("Hier.create: invalid tree: " ^ String.concat "; " errors));
    let nodes = ref [] in
    let counter = ref 0 in
    let by_name = Hashtbl.create 16 in
    let leaf_list = ref [] in
    let rec build ~level ~parent spec =
      let id = !counter in
      incr counter;
      let name = Class_tree.name spec and rate = Class_tree.rate spec in
      let kind =
        match spec with
        | Class_tree.Leaf { queue_capacity_bits; _ } ->
          leaf_list := (name, id) :: !leaf_list;
          Leaf_node
            { fifo = Bfifo.create ?capacity_bits:queue_capacity_bits (); next_seq = 1 }
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
          logical = None;
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
        nodes = arr;
        tn = Array.make !counter 0.0;
        departed_bits = Array.make !counter 0.0;
        paths;
        root = root_node.id;
        by_name;
        leaf_list = List.rev !leaf_list;
        root_clock;
        on_depart;
        on_drop;
        on_transmit_start = nop_leaf_cb;
        link_busy = false;
        drops = 0;
        in_flight = None;
        complete_cb = ignore;
        burst_max;
        in_batch = false;
        batch_has = false;
        batch_due = 0.0;
      }
    in
    t.complete_cb <-
      (fun () ->
        match t.in_flight with
        | Some pkt ->
          t.in_flight <- None;
          drain t pkt
        | None -> invalid_arg "Hier: transmission completed with nothing in flight");
    t
  
  (* -- Public operations --------------------------------------------------- *)
  
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
     has already been committed up the tree: the head reference may sit in
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
    let fifo =
      match n.kind with
      | Leaf_node { fifo; _ } -> fifo
      | Interior _ -> invalid_arg "Hier.close_leaf: not a leaf"
    in
    (match n.lifecycle with
    | `Open -> ()
    | `Draining | `Drop_pending | `Closed ->
      invalid_arg "Hier.close_leaf: leaf already closed or closing");
    let q = t.nodes.(n.parent) in
    let qp = policy_of q in
    let q_now = node_now t q in
    match n.logical with
    | None ->
      (* idle leaf: the parent's slot frees immediately *)
      qp.Sched_intf.close_session ~now:q_now ~policy n.handle_in_parent;
      n.lifecycle <- `Closed
    | Some pkt -> (
      match policy with
      | `Drain ->
        qp.Sched_intf.close_session ~now:q_now ~policy:`Drain n.handle_in_parent;
        n.lifecycle <- `Draining
      | `Drop ->
        let on_wire =
          t.link_busy && (match t.in_flight with Some p -> p == pkt | None -> false)
        in
        if on_wire then n.lifecycle <- `Drop_pending
        else begin
          drop_queue t n fifo;
          n.logical <- None;
          (* erase the committed chain: every ancestor whose logical head IS
             this packet committed it via RESTART-NODE *)
          let rec clear_up m =
            match m.logical with
            | Some p when p == pkt ->
              m.logical <- None;
              m.active_child <- -1;
              if not (is_root t m) then clear_up t.nodes.(m.parent)
            | Some _ | None -> ()
          in
          clear_up q;
          qp.Sched_intf.close_session ~now:q_now ~policy:`Drop n.handle_in_parent;
          n.lifecycle <- `Closed;
          (* if the parent lost its committed head, the restart cascade
             repairs it and every cleared ancestor above it *)
          if q.logical = None then restart_node t q
        end)
  
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
        Net.Packet.make ~mark ~flow:leaf ~seq:l.next_seq ~size_bits ~arrival:now ()
      in
      l.next_seq <- l.next_seq + 1;
      if not (Bfifo.push l.fifo pkt) then begin
        t.drops <- t.drops + 1;
        Log.debug (fun m ->
            m "drop at leaf %s: %g bits, queue %g bits full" n.name size_bits
              (Bfifo.bits l.fifo));
        t.on_drop pkt ~leaf:n.name now;
        pkt
      end
      else begin
        let q = t.nodes.(n.parent) in
        let q_now = node_now t q in
        (policy_of q).Sched_intf.arrive ~now:q_now ~session:n.session_in_parent ~size_bits;
        (match n.logical with
        | Some _ -> () (* ARRIVE lines 2-3: subtree already has a head *)
        | None ->
          n.logical <- Some pkt;
          (policy_of q).Sched_intf.backlog ~now:q_now ~session:n.session_in_parent
            ~head_bits:size_bits;
          if not q.busy then restart_node t q);
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
          Net.Packet.make ~mark ~flow:leaf ~seq:l.next_seq ~size_bits ~arrival:now ()
        in
        l.next_seq <- l.next_seq + 1;
        if not (Bfifo.push l.fifo pkt) then begin
          t.drops <- t.drops + 1;
          t.on_drop pkt ~leaf:n.name now
        end
        else begin
          let q = t.nodes.(n.parent) in
          let q_now = node_now t q in
          (policy_of q).Sched_intf.arrive ~now:q_now ~session:n.session_in_parent
            ~size_bits;
          match n.logical with
          | Some _ -> ()
          | None ->
            n.logical <- Some pkt;
            (policy_of q).Sched_intf.backlog ~now:q_now ~session:n.session_in_parent
              ~head_bits:size_bits;
            if not q.busy then restart_node t q
        end
      done
  
  let set_burst_max t n =
    if n < 1 then invalid_arg "Hier.set_burst_max: burst_max must be >= 1";
    t.burst_max <- n
  
  let burst_max t = t.burst_max
  
  let queue_bits t ~leaf =
    match t.nodes.(leaf).kind with
    | Leaf_node { fifo; _ } -> Bfifo.bits fifo
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
  
  let link_busy t = t.link_busy
  let drops t = t.drops
  
  (* -- Observability ------------------------------------------------------- *)
  
  let compose_leaf_cb f g =
    if f == nop_leaf_cb then g else fun pkt ~leaf now -> f pkt ~leaf now; g pkt ~leaf now
  
  let add_depart_hook t f = t.on_depart <- compose_leaf_cb t.on_depart f
  let add_drop_hook t f = t.on_drop <- compose_leaf_cb t.on_drop f
  let add_transmit_start_hook t f = t.on_transmit_start <- compose_leaf_cb t.on_transmit_start f
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
end
