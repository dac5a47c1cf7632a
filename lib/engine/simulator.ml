(* Pooled event loop over a calendar-queue pending-event set.

   Events live in a paged struct-of-arrays pool ([Event_pool]) indexed by
   slot: fire times stay unboxed, freed slots recycle through a freelist,
   growth appends a page without copying, and a steady schedule/fire
   workload allocates nothing per event beyond the caller's closure. An
   [event_id] packs (slot, generation); the generation bumps every time
   a slot is freed, so a cancel holding a stale id (event already fired,
   or slot since reused) is detected and ignored instead of killing an
   unrelated event.

   The *order* over pending slots is a [Calendar_queue] (amortized O(1)
   on timer-churn workloads). It drops cancelled events lazily; when
   cancelled entries outnumber live ones the structure is compacted,
   bounding memory under cancel-heavy workloads such as TCP
   retransmit-timer churn. test/test_event_set.ml drives it and the
   reference [Slot_heap] through identical op sequences in lockstep. *)

(* [pack] puts the slot index in bits 31+ of an OCaml int. On a 63-bit
   platform slots up to 2^31 coexist with 31 generation bits; on a 32-bit
   platform every slot would alias slot 0 and stale cancels could kill
   unrelated events — fail loudly at startup instead. *)
let () =
  if Sys.int_size < 63 then
    failwith
      (Printf.sprintf
         "Engine.Simulator: event ids pack (slot, generation) into a 63-bit \
          int; %d-bit platforms are unsupported"
         (Sys.int_size + 1))

type event_id = int

let gen_mask = Event_pool.gen_mask
let pack ~slot ~gen = (slot lsl 31) lor (gen land gen_mask)
let id_slot id = id lsr 31
let id_gen id = id land gen_mask

(* All bits set decodes to a slot index beyond any reachable pool capacity,
   so [cancel] treats it as stale. Lets callers pre-size id arrays without
   an option box. *)
let stale_id : event_id = -1

type probe = {
  on_schedule : at:float -> now:float -> unit;
  on_fire : at:float -> unit;
  on_cancel : at:float -> now:float -> unit;
}

type t = {
  pool : Event_pool.t;
  es : Calendar_queue.t;
  mutable clock : float;
      (* A mutable float field of a mixed record boxes on every store (one
         per fired event) — but [now] then returns the existing box for
         free, and handlers read the clock more often than the loop writes
         it. A flat 1-element float array inverts the trade: free stores,
         a fresh 2-word box per [now] read — measurably worse (+6
         words/pkt on the hier bench, which reads [now] ~3x per packet). *)
  mutable next_seq : int;
  mutable fired : int;
  mutable live : int; (* pending and not cancelled *)
  mutable compactions : int;
  mutable probe : probe option; (* observability hook; None must stay free *)
  mutable horizon : float;
      (* the [until] of the [run] currently draining this simulator
         (infinity otherwise). Burst-draining handlers consult it so an
         inline departure never crosses a boundary a scheduled event
         would not have crossed. *)
}

let create () =
  let pool = Event_pool.create () in
  {
    pool;
    es = Calendar_queue.create pool;
    clock = 0.0;
    next_seq = 0;
    fired = 0;
    live = 0;
    compactions = 0;
    probe = None;
    horizon = infinity;
  }

(* A slot's fire time, read off its page: [Event_pool.time] boxes the
   float wherever it is not inlined (the dev profile's -opaque). *)
let[@inline] time pool slot =
  Array.unsafe_get
    (Array.unsafe_get (Event_pool.times pool) (slot lsr Event_pool.page_bits))
    (slot land Event_pool.page_mask)

let now t = t.clock
let run_horizon t = t.horizon

(* ---- public API ---- *)

(* Written [not (at >= floor)] rather than [at < floor] so that a NaN
   time, which compares false both ways, is rejected too: admitted, it
   would sort arbitrarily and could pull the clock backwards. *)
let[@inline] check_time ~fn ~at ~floor what =
  if not (at >= floor) then
    invalid_arg (Printf.sprintf "Simulator.%s: time %g is before %s %g" fn at what floor)

(* Put [action] in the pending set at [at] with FIFO key [seq]. *)
let[@inline] insert t ~at ~seq action =
  let slot = Event_pool.alloc t.pool in
  Event_pool.fill t.pool slot ~at ~seq;
  Event_pool.set_action t.pool slot action;
  t.live <- t.live + 1;
  Calendar_queue.add t.es slot;
  (match t.probe with
  | None -> ()
  | Some p -> p.on_schedule ~at ~now:t.clock);
  slot

let schedule t ~at action =
  check_time ~fn:"schedule" ~at ~floor:t.clock "now";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = insert t ~at ~seq action in
  pack ~slot ~gen:(Event_pool.gen t.pool slot)

(* A stream is [schedule] of n actions, done lazily. Install reserves the
   n sequence numbers that n [schedule] calls would have taken, so entry k
   carries exactly the key (time k, base + k) it would have had, and the
   calendar orders by that key alone. Only one entry is pending at a
   time: entry k schedules entry k + 1 before running its own body, so
   while the body runs the pending set holds the same minimum — and
   [peek_time] reads the same value — as under eager scheduling, where
   entries k + 1 .. n - 1 would all be waiting. Entry k + 1's time is
   drawn then, while the clock reads entry k's time, so checking it
   against [now] is checking that the times do not decrease. One closure
   serves every entry and the source's float goes into the pool
   unboxed, so firing an entry allocates nothing of the stream's own. *)
let stream t ~n ~time action =
  let draw k =
    let at = time k in
    check_time ~fn:"stream" ~at ~floor:t.clock "now";
    if at = infinity then invalid_arg "Simulator.stream: infinite time";
    at
  in
  if n > 0 then begin
    let at = draw 0 in
    let base = t.next_seq in
    t.next_seq <- base + n;
    let next = ref 0 in
    let rec fire () =
      let k = !next in
      next := k + 1;
      if k + 1 < n then ignore (insert t ~at:(draw (k + 1)) ~seq:(base + k + 1) fire);
      action k
    in
    ignore (insert t ~at ~seq:base fire)
  end

let schedule_after t ~delay action =
  if delay < 0.0 then invalid_arg "Simulator.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) action

(* Below this occupancy compaction is not worth the sweep. *)
let compact_min_size = 64

let cancel t id =
  let slot = id_slot id in
  let pool = t.pool in
  if
    slot < Event_pool.capacity pool
    && Event_pool.gen pool slot = id_gen id
    && Event_pool.is_live pool slot
  then begin
    Event_pool.cancel pool slot;
    Event_pool.set_action pool slot Event_pool.no_action; (* release eagerly *)
    t.live <- t.live - 1;
    (match t.probe with
    | None -> ()
    | Some p -> p.on_cancel ~at:(time pool slot) ~now:t.clock);
    (* cancelled-in-structure = size - live; compact once they exceed the
       live population (and the structure is big enough to be worth it) *)
    let size = Calendar_queue.size t.es in
    if size >= compact_min_size && size - t.live > t.live then begin
      Calendar_queue.compact t.es;
      t.compactions <- t.compactions + 1
    end
  end

let pending t = t.live

let peek_time t =
  let slot = Calendar_queue.peek_live t.es in
  if slot < 0 then infinity else time t.pool slot

(* Burst-draining handlers move the clock themselves between inline
   departures. The two bounds make the motion indistinguishable from
   firing the equivalent scheduled events: never backwards, and never
   past the earliest pending event (which would have fired first). *)
let advance_clock t ~to_ =
  if not (to_ >= t.clock) then
    invalid_arg
      (Printf.sprintf "Simulator.advance_clock: time %g is before now %g" to_
         t.clock);
  if to_ > peek_time t then
    invalid_arg
      (Printf.sprintf
         "Simulator.advance_clock: time %g is past the earliest pending event \
          at %g"
         to_ (peek_time t));
  t.clock <- to_

let step t =
  let slot = Calendar_queue.pop_live t.es in
  if slot < 0 then false
  else begin
    let pool = t.pool in
    t.clock <- time pool slot;
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    let action = Event_pool.action pool slot in
    (* free before firing: the handler may schedule (reusing this slot)
       or cancel (the bumped generation makes its own id stale) *)
    Event_pool.free pool slot;
    (match t.probe with
    | None -> ()
    | Some p -> p.on_fire ~at:t.clock);
    action ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
    (* Publish the horizon for the duration of the drain so burst-draining
       handlers stop inlining departures exactly where the per-event loop
       would have stopped firing them. Restore the caller's horizon (nested
       [run]s from handlers are legal) even if a handler raises. *)
    let saved = t.horizon in
    t.horizon <- horizon;
    Fun.protect
      ~finally:(fun () -> t.horizon <- saved)
      (fun () ->
        let continue = ref true in
        while !continue do
          let slot = Calendar_queue.peek_live t.es in
          if slot < 0 then continue := false
          else if time t.pool slot <= horizon then
            ignore (step t)
          else continue := false
        done;
        if t.clock < horizon then t.clock <- horizon)

let events_processed t = t.fired
let set_probe t p = t.probe <- p

(* ---- occupancy / structure stats ---- *)

type stats = {
  live : int;
  cancelled_in_set : int;
  set_capacity : int;
  pool_capacity : int;
  compactions : int;
  resizes : int;
}

let stats (t : t) =
  {
    live = t.live;
    cancelled_in_set = Calendar_queue.size t.es - t.live;
    set_capacity = Calendar_queue.capacity t.es;
    pool_capacity = Event_pool.capacity t.pool;
    compactions = t.compactions;
    resizes = Calendar_queue.resizes t.es;
  }
