(* Pooled event loop over a pluggable pending-event set.

   Events live in a struct-of-arrays pool ([Event_pool]) indexed by slot:
   fire times stay unboxed, freed slots recycle through a freelist, and a
   steady schedule/fire workload allocates nothing per event beyond the
   caller's closure. An [event_id] packs (slot, generation); the
   generation bumps every time a slot is freed, so a cancel holding a
   stale id (event already fired, or slot since reused) is detected and
   ignored instead of killing an unrelated event.

   The *order* over pending slots is a backend behind the [Event_set.S]
   contract — a binary slot heap (the O(log n) reference) or a calendar
   queue (amortized O(1) on timer-churn workloads, the default). Both
   drop cancelled events lazily; when cancelled entries outnumber live
   ones the structure is compacted, bounding memory under cancel-heavy
   workloads such as TCP retransmit-timer churn. `bench events` A/Bs the
   backends and test/test_event_set.ml drives both through identical op
   sequences in lockstep. *)

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

(* ---- pending-set backends ---- *)

type backend = Slot_heap | Calendar

(* Compile-time check that both implementations satisfy the contract. *)
module _ : Event_set.S = Slot_heap
module _ : Event_set.S = Calendar_queue

(* Dispatch over a two-constructor variant keeps backend calls direct
   (one predictable branch) instead of going through a first-class
   module's closure record. *)
type event_set = Heap of Slot_heap.t | Cal of Calendar_queue.t

let backend_name = function Slot_heap -> "heap" | Calendar -> "calendar"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "heap" | "slot-heap" | "slot_heap" | "binary" -> Ok Slot_heap
  | "calendar" | "calendar-queue" | "calendar_queue" | "cq" -> Ok Calendar
  | other ->
    Error
      (Printf.sprintf
         "unknown event-set backend %S (expected \"heap\" or \"calendar\")"
         other)

(* Process-wide default, so drivers (bench, hpfq_sim) can A/B every
   simulator an experiment creates without threading a parameter through
   each one: the HPFQ_EVENT_SET environment variable seeds it, and
   [set_default_backend] backs the CLI knob. An [Atomic] (not a plain
   ref) since parallel sweeps run simulators on multiple domains — but
   the real domain-safety contract is stronger: sweep workers never read
   this at all. They read a [config] snapshotted once, on the parent
   domain, before any worker spawns ([snapshot_config] below), so a
   mid-sweep [set_default_backend] cannot make task 12 run on a
   different backend than task 3. *)
let default_backend_ref =
  Atomic.make
    (match Sys.getenv_opt "HPFQ_EVENT_SET" with
    | None -> Calendar
    | Some s -> (
      match backend_of_string s with
      | Ok b -> b
      | Error msg ->
        Printf.eprintf "warning: HPFQ_EVENT_SET: %s; using calendar\n%!" msg;
        Calendar))

let default_backend () = Atomic.get default_backend_ref
let set_default_backend b = Atomic.set default_backend_ref b

(* Every process-wide mutable default a simulator consults at [create]
   time, flattened into an immutable record. Today that is only the
   event-set backend; new defaults must join this record so the
   snapshot-before-spawn discipline keeps covering them. *)
type config = { cfg_backend : backend }

let snapshot_config () = { cfg_backend = default_backend () }

type t = {
  pool : Event_pool.t;
  es : event_set;
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

let create ?backend () =
  let backend =
    match backend with Some b -> b | None -> Atomic.get default_backend_ref
  in
  let pool = Event_pool.create () in
  let es =
    match backend with
    | Slot_heap -> Heap (Slot_heap.create pool)
    | Calendar -> Cal (Calendar_queue.create pool)
  in
  {
    pool;
    es;
    clock = 0.0;
    next_seq = 0;
    fired = 0;
    live = 0;
    compactions = 0;
    probe = None;
    horizon = infinity;
  }

let create_configured config = create ~backend:config.cfg_backend ()

let backend t = match t.es with Heap _ -> Slot_heap | Cal _ -> Calendar
let now t = t.clock
let run_horizon t = t.horizon

let es_add t slot =
  match t.es with Heap h -> Slot_heap.add h slot | Cal c -> Calendar_queue.add c slot

let es_peek_live t =
  match t.es with
  | Heap h -> Slot_heap.peek_live h
  | Cal c -> Calendar_queue.peek_live c

let es_pop_live t =
  match t.es with
  | Heap h -> Slot_heap.pop_live h
  | Cal c -> Calendar_queue.pop_live c

let es_size t =
  match t.es with Heap h -> Slot_heap.size h | Cal c -> Calendar_queue.size c

let es_capacity t =
  match t.es with
  | Heap h -> Slot_heap.capacity h
  | Cal c -> Calendar_queue.capacity c

let es_compact t =
  match t.es with
  | Heap h -> Slot_heap.compact h
  | Cal c -> Calendar_queue.compact c

let es_resizes t =
  match t.es with
  | Heap h -> Slot_heap.resizes h
  | Cal c -> Calendar_queue.resizes c

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
  let pool = t.pool in
  pool.Event_pool.times.(slot) <- at;
  pool.Event_pool.seqs.(slot) <- seq;
  pool.Event_pool.actions.(slot) <- action;
  Bytes.set pool.Event_pool.state slot Event_pool.st_live;
  t.live <- t.live + 1;
  es_add t slot;
  (match t.probe with
  | None -> ()
  | Some p -> p.on_schedule ~at ~now:t.clock);
  slot

let schedule t ~at action =
  check_time ~fn:"schedule" ~at ~floor:t.clock "now";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = insert t ~at ~seq action in
  pack ~slot ~gen:t.pool.Event_pool.gens.(slot)

(* A stream is [schedule] of n actions, done lazily. Install reserves the
   n sequence numbers that n [schedule] calls would have taken, so entry k
   carries exactly the key (times.(k), base + k) it would have had, and
   both backends order by that key alone. Only one entry is pending at a
   time: entry k schedules entry k + 1 before running its own body, so
   while the body runs the pending set holds the same minimum — and
   [peek_time] reads the same value — as under eager scheduling, where
   entries k + 1 .. n - 1 would all be waiting. One closure serves every
   entry, so firing an entry allocates nothing. *)
let stream t times action =
  let n = Array.length times in
  let floor = ref t.clock in
  for k = 0 to n - 1 do
    let at = times.(k) in
    check_time ~fn:"stream" ~at ~floor:!floor (if k = 0 then "now" else "the previous time");
    if at = infinity then invalid_arg "Simulator.stream: infinite time";
    floor := at
  done;
  if n > 0 then begin
    let base = t.next_seq in
    t.next_seq <- base + n;
    let next = ref 0 in
    let rec fire () =
      let k = !next in
      next := k + 1;
      if k + 1 < n then ignore (insert t ~at:times.(k + 1) ~seq:(base + k + 1) fire);
      action k
    in
    ignore (insert t ~at:times.(0) ~seq:base fire)
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
    && pool.Event_pool.gens.(slot) = id_gen id
    && Event_pool.is_live pool slot
  then begin
    Bytes.set pool.Event_pool.state slot Event_pool.st_cancelled;
    pool.Event_pool.actions.(slot) <- Event_pool.no_action; (* release eagerly *)
    t.live <- t.live - 1;
    (match t.probe with
    | None -> ()
    | Some p -> p.on_cancel ~at:pool.Event_pool.times.(slot) ~now:t.clock);
    (* cancelled-in-structure = size - live; compact once they exceed the
       live population (and the structure is big enough to be worth it) *)
    let size = es_size t in
    if size >= compact_min_size && size - t.live > t.live then begin
      es_compact t;
      t.compactions <- t.compactions + 1
    end
  end

let pending t = t.live

let peek_time t =
  let slot = es_peek_live t in
  if slot < 0 then infinity else t.pool.Event_pool.times.(slot)

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
  let slot = es_pop_live t in
  if slot < 0 then false
  else begin
    let pool = t.pool in
    t.clock <- pool.Event_pool.times.(slot);
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    let action = pool.Event_pool.actions.(slot) in
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
          let slot = es_peek_live t in
          if slot < 0 then continue := false
          else if t.pool.Event_pool.times.(slot) <= horizon then
            ignore (step t)
          else continue := false
        done;
        if t.clock < horizon then t.clock <- horizon)

let events_processed t = t.fired
let set_probe t p = t.probe <- p

(* ---- occupancy / structure stats ---- *)

type stats = {
  stat_backend : backend;
  live : int;
  cancelled_in_set : int;
  set_capacity : int;
  pool_capacity : int;
  compactions : int;
  resizes : int;
}

let stats t =
  {
    stat_backend = backend t;
    live = t.live;
    cancelled_in_set = es_size t - t.live;
    set_capacity = es_capacity t;
    pool_capacity = Event_pool.capacity t.pool;
    compactions = t.compactions;
    resizes = es_resizes t;
  }
