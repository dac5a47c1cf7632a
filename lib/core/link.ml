type t = {
  sim : Engine.Simulator.t;
  pool : Net.Packet_pool.t;
  rate : float;
  mutable busy : bool;
  mutable in_flight : Net.Packet_pool.handle;
  mutable complete : Net.Packet_pool.handle -> unit;
  mutable on_start : Net.Packet_pool.handle -> unit;
  (* The completion event's callback, allocated once: only one packet is
     ever on the wire, so the event reads it from [in_flight]. *)
  mutable fire : unit -> unit;
  mutable burst_max : int;
  (* While a drain activation runs [complete] ([in_batch]), [start]
     records the follow-up's due time here instead of scheduling an event;
     the drain then runs it inline or schedules it. *)
  mutable in_batch : bool;
  mutable batch_has : bool;
  batch_due : float array; (* 1-element: a float field here would box *)
}

let nop _ = ()

let check_burst_max n = if n < 1 then invalid_arg "Link: burst_max must be >= 1"

let start t pkt =
  t.busy <- true;
  t.in_flight <- pkt;
  if t.on_start != nop then t.on_start pkt;
  (* [now +. duration] is the exact float [schedule_after ~delay]
     computes — batched and per-packet fire times must agree bitwise. *)
  let due =
    Engine.Simulator.now t.sim +. (Net.Packet_pool.size_bits t.pool pkt /. t.rate)
  in
  if t.in_batch then begin
    t.batch_has <- true;
    t.batch_due.(0) <- due
  end
  else ignore (Engine.Simulator.schedule t.sim ~at:due t.fire)

(* The burst rule; see the .mli. *)
let drain t =
  let sim = t.sim in
  let steps = ref 1 in
  let continue = ref true in
  while !continue do
    let pkt = t.in_flight in
    t.busy <- false;
    t.in_flight <- Net.Packet_pool.none;
    t.in_batch <- true;
    t.batch_has <- false;
    t.complete pkt;
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
        incr steps
      end
      else begin
        ignore (Engine.Simulator.schedule sim ~at:due t.fire);
        continue := false
      end
    end
  done

let create ~sim ~pool ~rate ~burst_max =
  check_burst_max burst_max;
  let t =
    {
      sim;
      pool;
      rate;
      busy = false;
      in_flight = Net.Packet_pool.none;
      complete = nop;
      on_start = nop;
      fire = ignore;
      burst_max;
      in_batch = false;
      batch_has = false;
      batch_due = [| 0.0 |];
    }
  in
  t.fire <- (fun () -> drain t);
  t

let set_complete t f = t.complete <- f
let set_on_start t f = t.on_start <- f
let busy t = t.busy
let in_flight t = t.in_flight
let burst_max t = t.burst_max

let set_burst_max t n =
  check_burst_max n;
  t.burst_max <- n
