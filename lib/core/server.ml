open Sched

type session = {
  rate : float;
  fifo : Net.Fifo.t;
  handle : Session_handle.t; (* the policy's handle for this incarnation *)
  mutable next_seq : int;
  mutable has_head : bool;   (* a packet of ours is registered with the policy *)
  mutable in_service : bool; (* our head is currently on the link *)
  mutable closing : Sched_intf.close_policy option; (* Some = close requested *)
  departed_bits : float array; (* 1-element: a mutable float field in this
                                  mixed record would box on every store *)
}

(* The hot path moves [Net.Packet_pool.handle]s (immediate ints); hooks are
   handle-based internally, and the boxed [Net.Packet.t] view is
   materialised only inside the compat wrappers that [add_depart_hook]
   etc. install — a server with no boxed hooks never builds a box. *)
type t = {
  sim : Engine.Simulator.t;
  policy : Sched_intf.t;
  pool : Net.Packet_pool.t;
  sessions : session Vec.t;
  mutable on_depart : Net.Packet_pool.handle -> float -> unit;
  mutable on_drop : Net.Packet_pool.handle -> float -> unit;
  mutable on_transmit_start : Net.Packet_pool.handle -> float -> unit;
  link : Link.t;
  departed_total : float array; (* 1-element, same unboxing trick *)
}

let nop2 _ _ = ()

let pool t = t.pool

let set_burst_max t n = Link.set_burst_max t.link n
let burst_max t = Link.burst_max t.link

(* Hook setters compose with (run after) whatever is installed, so tracing
   can piggyback on a server whose owner already registered callbacks.
   The boxed variants materialise the packet per hook invocation; the
   [_handle_] variants are allocation-free. *)
let compose2 f g = if f == nop2 then g else fun a b -> f a b; g a b
let add_depart_handle_hook t f = t.on_depart <- compose2 t.on_depart f
let add_drop_handle_hook t f = t.on_drop <- compose2 t.on_drop f
let add_transmit_start_handle_hook t f =
  t.on_transmit_start <- compose2 t.on_transmit_start f;
  Link.set_on_start t.link (fun pkt ->
      t.on_transmit_start pkt (Engine.Simulator.now t.sim))

let boxed t f = fun h now -> f (Net.Packet_pool.to_packet t.pool h) now
let add_depart_hook t f = add_depart_handle_hook t (boxed t f)
let add_drop_hook t f = add_drop_handle_hook t (boxed t f)
let add_transmit_start_hook t f = add_transmit_start_handle_hook t (boxed t f)

let open_session t ~rate ?queue_capacity_bits () =
  let handle = t.policy.Sched_intf.open_session ~rate in
  let slot = t.policy.Sched_intf.session_of_handle handle in
  let fifo = Net.Fifo.create ?capacity_bits:queue_capacity_bits ~pool:t.pool () in
  let fresh =
    {
      rate;
      fifo;
      handle;
      next_seq = 1;
      has_head = false;
      in_service = false;
      closing = None;
      departed_bits = [| 0.0 |];
    }
  in
  (* The policy may hand back a recycled slot; mirror its slot table. *)
  if slot = Vec.length t.sessions then ignore (Vec.push t.sessions fresh)
  else Vec.set t.sessions slot fresh;
  handle

let drop_queue t s =
  let now = Engine.Simulator.now t.sim in
  while not (Net.Fifo.is_empty s.fifo) do
    let h = Net.Fifo.pop_exn s.fifo in
    t.on_drop h now;
    Net.Packet_pool.free t.pool h
  done

(* Close semantics (deterministic in every state):
   - idle session: the policy slot is freed immediately;
   - backlogged, [`Drain]: no new injections; the queue keeps its place in
     the schedule and the slot frees when it empties;
   - backlogged, [`Drop]: queued packets are handed to [on_drop] and the
     policy forgets the session now — except that a packet already
     committed to the link is never recalled: the close completes at its
     transmission-complete event. *)
let close_session t ~policy h =
  let slot = t.policy.Sched_intf.session_of_handle h in
  let s = Vec.get t.sessions slot in
  if s.closing <> None then invalid_arg "Server.close_session: already closing";
  let now = Engine.Simulator.now t.sim in
  if s.in_service then begin
    s.closing <- Some policy;
    match policy with
    | `Drain -> t.policy.Sched_intf.close_session ~now ~policy h
    | `Drop -> () (* deferred to [complete]: the policy still holds the head *)
  end
  else if s.has_head then begin
    s.closing <- Some policy;
    (match policy with `Drain -> () | `Drop -> drop_queue t s; s.has_head <- false);
    t.policy.Sched_intf.close_session ~now ~policy h
  end
  else begin
    s.closing <- Some policy;
    t.policy.Sched_intf.close_session ~now ~policy h
  end

let rec start_transmission t =
  if not (Link.busy t.link) then begin
    let now = Engine.Simulator.now t.sim in
    match t.policy.Sched_intf.select ~now with
    | None -> ()
    | Some session ->
      let s = Vec.get t.sessions session in
      if Net.Fifo.is_empty s.fifo then
        invalid_arg "Server: policy selected an empty session";
      let pkt = Net.Fifo.peek_exn s.fifo in
      Net.Fifo.drop_head s.fifo;
      s.in_service <- true;
      Link.start t.link pkt
  end

(* Transmission complete: the link has already cleared its busy flag. *)
and complete t pkt =
  let now = Engine.Simulator.now t.sim in
  let session = Net.Packet_pool.flow t.pool pkt in
  let s = Vec.get t.sessions session in
  let size_bits = Net.Packet_pool.size_bits t.pool pkt in
  s.in_service <- false;
  s.departed_bits.(0) <- s.departed_bits.(0) +. size_bits;
  t.departed_total.(0) <- t.departed_total.(0) +. size_bits;
  (match s.closing with
  | Some `Drop ->
    (* close was deferred while this packet held the link: discard the
       rest of the queue and finish the close now *)
    drop_queue t s;
    s.has_head <- false;
    t.policy.Sched_intf.set_idle ~now ~session;
    t.policy.Sched_intf.close_session ~now ~policy:`Drop s.handle
  | Some `Drain | None ->
    if Net.Fifo.is_empty s.fifo then begin
      s.has_head <- false;
      t.policy.Sched_intf.set_idle ~now ~session
    end
    else
      t.policy.Sched_intf.requeue ~now ~session
        ~head_bits:(Net.Packet_pool.size_bits t.pool (Net.Fifo.peek_exn s.fifo)));
  t.on_depart pkt now;
  Net.Packet_pool.free t.pool pkt;
  start_transmission t

let create ~sim ~rate ~policy ?on_depart ?on_drop ?(burst_max = 1) () =
  if rate <= 0.0 then invalid_arg "Server.create: rate must be positive";
  let pool = Net.Packet_pool.create () in
  let t =
    {
      sim;
      policy;
      pool;
      sessions = Vec.create ();
      on_depart = nop2;
      on_drop = nop2;
      on_transmit_start = nop2;
      link = Link.create ~sim ~pool ~rate ~burst_max;
      departed_total = [| 0.0 |];
    }
  in
  Link.set_complete t.link (complete t);
  (match on_depart with
  | None -> ()
  | Some f -> t.on_depart <- (fun h now -> f (Net.Packet_pool.to_packet pool h) now));
  (match on_drop with
  | None -> ()
  | Some f -> t.on_drop <- (fun h now -> f (Net.Packet_pool.to_packet pool h) now));
  t

let inject t ~session ~size_bits =
  let now = Engine.Simulator.now t.sim in
  let s = Vec.get t.sessions session in
  if s.closing <> None then invalid_arg "Server.inject: session is closed";
  let pkt =
    Net.Packet_pool.alloc t.pool ~flow:session ~seq:s.next_seq ~size_bits
      ~arrival:now
  in
  s.next_seq <- s.next_seq + 1;
  if not (Net.Fifo.push s.fifo pkt) then begin
    t.on_drop pkt now;
    Net.Packet_pool.free t.pool pkt;
    pkt
  end
  else begin
    t.policy.Sched_intf.arrive ~now ~session ~size_bits;
    if not s.has_head then begin
      s.has_head <- true;
      t.policy.Sched_intf.backlog ~now ~session ~head_bits:size_bits
    end;
    start_transmission t;
    pkt
  end

let inject_handle t ~handle ~size_bits =
  inject t ~session:(t.policy.Sched_intf.session_of_handle handle) ~size_bits

(* Batched arrival: [count] same-size packets stamped with a single [now]
   read (the clock cannot move during injection, so the stamps are
   bit-identical to [count] separate injects), and the transmission chain
   kicked once at the end instead of per packet. *)
let inject_batch t ~session ~size_bits ~count =
  if count < 0 then invalid_arg "Server.inject_batch: negative count";
  let now = Engine.Simulator.now t.sim in
  let s = Vec.get t.sessions session in
  if s.closing <> None then invalid_arg "Server.inject_batch: session is closed";
  for _ = 1 to count do
    let pkt =
      Net.Packet_pool.alloc t.pool ~flow:session ~seq:s.next_seq ~size_bits
        ~arrival:now
    in
    s.next_seq <- s.next_seq + 1;
    if not (Net.Fifo.push s.fifo pkt) then begin
      t.on_drop pkt now;
      Net.Packet_pool.free t.pool pkt
    end
    else begin
      t.policy.Sched_intf.arrive ~now ~session ~size_bits;
      if not s.has_head then begin
        s.has_head <- true;
        t.policy.Sched_intf.backlog ~now ~session ~head_bits:size_bits
      end
    end
  done;
  if count > 0 then start_transmission t

let queue_bits t ~session = Net.Fifo.bits (Vec.get t.sessions session).fifo
let session_count t = Vec.length t.sessions
let live_sessions t = t.policy.Sched_intf.live_sessions ()
let busy t = Link.busy t.link
let policy t = t.policy
let departed_bits t ~session = (Vec.get t.sessions session).departed_bits.(0)
let departed_bits_total t = t.departed_total.(0)
