open Sched

(* Sessions live in flat arrays indexed by session slot, one short run of
   words each, with no record per session:
   - [sess.(3i .. 3i+2)]: the policy's handle for this incarnation, the
     next sequence number, and the state bits below;
   - [departed.(i)]: W_i(0, now);
   - queue [i] of [queues]: the session's packets.
   The policy may hand back a recycled slot; the arrays mirror its slot
   table. *)
let f_handle = 0
let f_seq = 1
let f_state = 2

(* state bits *)
let has_head = 1 (* a packet of ours is registered with the policy *)
let in_service = 2 (* our head is currently on the link *)
let closing_drain = 4 (* close requested, `Drain *)
let closing_drop = 8 (* close requested, `Drop *)
let closing = closing_drain lor closing_drop

(* The hot path moves [Net.Packet_pool.handle]s (immediate ints); hooks are
   handle-based internally, and the boxed [Net.Packet.t] view is
   materialised only inside the compat wrappers that [add_depart_hook]
   etc. install — a server with no boxed hooks never builds a box. *)
type t = {
  sim : Engine.Simulator.t;
  policy : Sched_intf.t;
  pool : Net.Packet_pool.t;
  queues : Net.Queues.t; (* queue i = session slot i *)
  mutable sess : int array;
  mutable departed : float array;
  mutable on_depart : Net.Packet_pool.handle -> float -> unit;
  mutable on_drop : Net.Packet_pool.handle -> float -> unit;
  mutable on_transmit_start : Net.Packet_pool.handle -> float -> unit;
  link : Link.t;
  departed_total : float array; (* 1-element: a float field here would box *)
}

let[@inline] state t i = t.sess.((3 * i) + f_state)
let[@inline] set_state t i v = t.sess.((3 * i) + f_state) <- v

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
  if slot < Net.Queues.count t.queues then
    Net.Queues.reset ?capacity_bits:queue_capacity_bits t.queues slot
  else begin
    ignore (Net.Queues.add ?capacity_bits:queue_capacity_bits t.queues : int);
    (* doubling copies the int cells in a typed loop: [Array.blit] into
       an int array in the major heap runs the write barrier per element *)
    if 3 * (slot + 1) > Array.length t.sess then begin
      let sess = Array.make (6 * slot) 0 in
      for i = 0 to (3 * slot) - 1 do
        Array.unsafe_set sess i (Array.unsafe_get t.sess i)
      done;
      let departed = Array.make (2 * slot) 0.0 in
      Array.blit t.departed 0 departed 0 slot;
      t.sess <- sess;
      t.departed <- departed
    end
  end;
  t.sess.((3 * slot) + f_handle) <- Session_handle.to_int handle;
  t.sess.((3 * slot) + f_seq) <- 1;
  set_state t slot 0;
  t.departed.(slot) <- 0.0;
  handle

let drop_queue t session =
  let now = Engine.Simulator.now t.sim in
  while not (Net.Queues.is_empty t.queues session) do
    let h = Net.Queues.pop_exn t.queues session in
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
  let st = state t slot in
  if st land closing <> 0 then invalid_arg "Server.close_session: already closing";
  let now = Engine.Simulator.now t.sim in
  let st = st lor (match policy with `Drain -> closing_drain | `Drop -> closing_drop) in
  set_state t slot st;
  if st land in_service <> 0 then begin
    match policy with
    | `Drain -> t.policy.Sched_intf.close_session ~now ~policy h
    | `Drop -> () (* deferred to [complete]: the policy still holds the head *)
  end
  else begin
    if st land has_head <> 0 && policy = `Drop then begin
      drop_queue t slot;
      set_state t slot (st land lnot has_head)
    end;
    t.policy.Sched_intf.close_session ~now ~policy h
  end

let rec start_transmission t =
  if not (Link.busy t.link) then begin
    let now = Engine.Simulator.now t.sim in
    match t.policy.Sched_intf.select ~now with
    | None -> ()
    | Some session ->
      if Net.Queues.is_empty t.queues session then
        invalid_arg "Server: policy selected an empty session";
      let pkt = Net.Queues.pop_exn t.queues session in
      set_state t session (state t session lor in_service);
      Link.start t.link pkt
  end

(* Transmission complete: the link has already cleared its busy flag. *)
and complete t pkt =
  let now = Engine.Simulator.now t.sim in
  let session = Net.Packet_pool.flow t.pool pkt in
  let size_bits = Net.Packet_pool.size_bits t.pool pkt in
  let st = state t session land lnot in_service in
  set_state t session st;
  t.departed.(session) <- t.departed.(session) +. size_bits;
  t.departed_total.(0) <- t.departed_total.(0) +. size_bits;
  if st land closing_drop <> 0 then begin
    (* close was deferred while this packet held the link: discard the
       rest of the queue and finish the close now *)
    drop_queue t session;
    set_state t session (st land lnot has_head);
    t.policy.Sched_intf.set_idle ~now ~session;
    t.policy.Sched_intf.close_session ~now ~policy:`Drop
      (Session_handle.of_int_unsafe t.sess.((3 * session) + f_handle))
  end
  else if Net.Queues.is_empty t.queues session then begin
    set_state t session (st land lnot has_head);
    t.policy.Sched_intf.set_idle ~now ~session
  end
  else
    t.policy.Sched_intf.requeue ~now ~session
      ~head_bits:(Net.Packet_pool.size_bits t.pool (Net.Queues.peek_exn t.queues session));
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
      queues = Net.Queues.create ~pool ();
      sess = Array.make 3 0;
      departed = [| 0.0 |];
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

let[@inline never] unknown_session fn session =
  invalid_arg (Printf.sprintf "Server.%s: unknown session %d" fn session)

(* Every session-indexed entry point names an index that was never opened
   before it touches any state. *)
let[@inline] check_session t ~fn session =
  if session < 0 || session >= Net.Queues.count t.queues then unknown_session fn session

(* One arrival at [now]: the caller has checked the session is open. *)
let[@inline] arrive t ~session ~size_bits ~now =
  let c = 3 * session in
  let seq = t.sess.(c + f_seq) in
  let pkt = Net.Packet_pool.alloc t.pool ~flow:session ~seq ~size_bits ~arrival:now in
  t.sess.(c + f_seq) <- seq + 1;
  if not (Net.Queues.push t.queues session pkt) then begin
    t.on_drop pkt now;
    Net.Packet_pool.free t.pool pkt
  end
  else begin
    t.policy.Sched_intf.arrive ~now ~session ~size_bits;
    let st = t.sess.(c + f_state) in
    if st land has_head = 0 then begin
      t.sess.(c + f_state) <- st lor has_head;
      t.policy.Sched_intf.backlog ~now ~session ~head_bits:size_bits
    end
  end;
  pkt

let inject t ~session ~size_bits =
  check_session t ~fn:"inject" session;
  let now = Engine.Simulator.now t.sim in
  if state t session land closing <> 0 then invalid_arg "Server.inject: session is closed";
  let pkt = arrive t ~session ~size_bits ~now in
  start_transmission t;
  pkt

let inject_handle t ~handle ~size_bits =
  inject t ~session:(t.policy.Sched_intf.session_of_handle handle) ~size_bits

(* Batched arrival: [count] same-size packets stamped with a single [now]
   read (the clock cannot move during injection, so the stamps are
   bit-identical to [count] separate injects), and the transmission chain
   kicked once at the end instead of per packet. *)
let inject_batch t ~session ~size_bits ~count =
  check_session t ~fn:"inject_batch" session;
  if count < 0 then invalid_arg "Server.inject_batch: negative count";
  let now = Engine.Simulator.now t.sim in
  if state t session land closing <> 0 then
    invalid_arg "Server.inject_batch: session is closed";
  for _ = 1 to count do
    ignore (arrive t ~session ~size_bits ~now : Net.Packet_pool.handle)
  done;
  if count > 0 then start_transmission t

let queue_bits t ~session =
  check_session t ~fn:"queue_bits" session;
  Net.Queues.bits t.queues session

let queued_packets t = Net.Queues.total_length t.queues
let session_count t = Net.Queues.count t.queues
let live_sessions t = t.policy.Sched_intf.live_sessions ()
let busy t = Link.busy t.link
let policy t = t.policy

let departed_bits t ~session =
  check_session t ~fn:"departed_bits" session;
  t.departed.(session)

let departed_bits_total t = t.departed_total.(0)
