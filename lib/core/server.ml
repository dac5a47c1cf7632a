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
  rate : float;
  policy : Sched_intf.t;
  pool : Net.Packet_pool.t;
  sessions : session Vec.t;
  mutable on_depart : Net.Packet_pool.handle -> float -> unit;
  mutable on_drop : Net.Packet_pool.handle -> float -> unit;
  mutable on_transmit_start : Net.Packet_pool.handle -> float -> unit;
  mutable busy : bool;
  departed_total : float array; (* 1-element, same unboxing trick *)
  (* Completion-event state. Only one transmission commitment can exist at
     a time ([busy] blocks re-entry until its completion runs), so the
     scheduled callback is preallocated once and reads the committed
     session/handle from these slots — no per-packet closure. *)
  mutable ev_session : int;
  mutable ev_handle : Net.Packet_pool.handle;
  mutable ev_cb : unit -> unit;
  (* Burst-drain state. While a drain activation is running ([in_batch]),
     [start_transmission] records its commitment into the [batch_*] slots
     instead of scheduling a completion event; the drain loop then decides
     whether to execute that completion inline or fall back to an event. *)
  mutable burst_max : int;
  mutable in_batch : bool;
  mutable batch_has : bool;
  mutable batch_session : int;
  mutable batch_pkt : Net.Packet_pool.handle;
  batch_due : float array; (* 1-element: written once per departed packet *)
}

let nop2 _ _ = ()

(* Sentinel for "no completion callback installed yet". A named top-level
   function, NOT [ignore]: referencing an external like [ignore] as a value
   eta-expands to a fresh closure at each use site, so [t.ev_cb == ignore]
   would never be true and the real callback would never be installed. *)
let nop_unit () = ()

let create ~sim ~rate ~policy ?on_depart ?on_drop ?(burst_max = 1) () =
  if rate <= 0.0 then invalid_arg "Server.create: rate must be positive";
  if burst_max < 1 then invalid_arg "Server.create: burst_max must be >= 1";
  let pool = Net.Packet_pool.create () in
  let t =
    {
      sim;
      rate;
      policy;
      pool;
      sessions = Vec.create ();
      on_depart = nop2;
      on_drop = nop2;
      on_transmit_start = nop2;
      busy = false;
      departed_total = [| 0.0 |];
      ev_session = -1;
      ev_handle = Net.Packet_pool.none;
      ev_cb = nop_unit;
      burst_max;
      in_batch = false;
      batch_has = false;
      batch_session = -1;
      batch_pkt = Net.Packet_pool.none;
      batch_due = [| 0.0 |];
    }
  in
  (match on_depart with
  | None -> ()
  | Some f -> t.on_depart <- (fun h now -> f (Net.Packet_pool.to_packet pool h) now));
  (match on_drop with
  | None -> ()
  | Some f -> t.on_drop <- (fun h now -> f (Net.Packet_pool.to_packet pool h) now));
  t

let pool t = t.pool

let set_burst_max t n =
  if n < 1 then invalid_arg "Server.set_burst_max: burst_max must be >= 1";
  t.burst_max <- n

let burst_max t = t.burst_max

(* Hook setters compose with (run after) whatever is installed, so tracing
   can piggyback on a server whose owner already registered callbacks.
   The boxed variants materialise the packet per hook invocation; the
   [_handle_] variants are allocation-free. *)
let compose2 f g = if f == nop2 then g else fun a b -> f a b; g a b
let add_depart_handle_hook t f = t.on_depart <- compose2 t.on_depart f
let add_drop_handle_hook t f = t.on_drop <- compose2 t.on_drop f
let add_transmit_start_handle_hook t f =
  t.on_transmit_start <- compose2 t.on_transmit_start f

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
  if not t.busy then begin
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
      t.busy <- true;
      t.on_transmit_start pkt now;
      let duration = Net.Packet_pool.size_bits t.pool pkt /. t.rate in
      (* [now +. duration] is the exact float [schedule_after ~delay]
         computes — the two paths must agree bit-for-bit on fire times. *)
      let due = now +. duration in
      if t.in_batch then begin
        t.batch_has <- true;
        t.batch_session <- session;
        t.batch_pkt <- pkt;
        t.batch_due.(0) <- due
      end
      else begin
        t.ev_session <- session;
        t.ev_handle <- pkt;
        (* installed on first use: [create] runs before [drain] is in
           scope; one closure per server for the whole run *)
        if t.ev_cb == nop_unit then
          t.ev_cb <- (fun () -> drain t t.ev_session t.ev_handle);
        ignore (Engine.Simulator.schedule t.sim ~at:due t.ev_cb)
      end
  end

(* One event activation drains up to [burst_max] consecutive departures.
   Each [complete] may commit at most one follow-up transmission (recorded
   via the [batch_*] slots); the next departure runs inline only when it
   would have been the very next event anyway: within the burst cap, not
   past the horizon of the enclosing [run ~until] ([<=]: an event exactly
   at the horizon fires), and strictly before the earliest pending event
   (at equal times the pending event carries the smaller schedule seq and
   wins the FIFO tie-break, so it must fire first). *)
and drain t session pkt =
  let sim = t.sim in
  let steps = ref 1 in
  let session = ref session in
  let pkt = ref pkt in
  let continue = ref true in
  while !continue do
    t.in_batch <- true;
    t.batch_has <- false;
    complete t !session !pkt;
    t.in_batch <- false;
    if not t.batch_has then continue := false
    else begin
      let due = t.batch_due.(0) in
      if
        !steps < t.burst_max
        && due <= Engine.Simulator.run_horizon sim
        && due < Engine.Simulator.peek_time sim
      then begin
        Engine.Simulator.advance_clock sim ~to_:due;
        incr steps;
        session := t.batch_session;
        pkt := t.batch_pkt
      end
      else begin
        t.ev_session <- t.batch_session;
        t.ev_handle <- t.batch_pkt;
        ignore (Engine.Simulator.schedule sim ~at:due t.ev_cb);
        continue := false
      end
    end
  done

and complete t session pkt =
  let now = Engine.Simulator.now t.sim in
  let s = Vec.get t.sessions session in
  let size_bits = Net.Packet_pool.size_bits t.pool pkt in
  s.in_service <- false;
  s.departed_bits.(0) <- s.departed_bits.(0) +. size_bits;
  t.departed_total.(0) <- t.departed_total.(0) +. size_bits;
  t.busy <- false;
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
let busy t = t.busy
let policy t = t.policy
let departed_bits t ~session = (Vec.get t.sessions session).departed_bits.(0)
let departed_bits_total t = t.departed_total.(0)
