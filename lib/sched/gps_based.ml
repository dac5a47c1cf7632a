type discipline = Sff | Seff

type session = {
  rate : float;
  stamps : Stamp_queue.t; (* (S, F) per queued packet, FIFO, unboxed *)
  mutable backlogged : bool;
}

type state = {
  discipline : discipline;
  clock : Gps_clock.t;
  sessions : session Vec.t;
  pool : Session_pool.t;
  (* SFF: [ready] holds every backlogged session keyed by head virtual
     finish. SEFF: [ready] holds eligible sessions keyed by finish and
     [waiting] holds not-yet-eligible ones keyed by head virtual start. *)
  ready : Prioq.Indexed_heap4.t;
  waiting : Prioq.Indexed_heap4.t;
  mutable backlogged_count : int;
  mutable observer : Sched_intf.observer option;
}

let head_stamps t session =
  let s = Vec.get t.sessions session in
  if Stamp_queue.is_empty s.stamps then
    invalid_arg "Gps_based: session has no stamped packet";
  s.stamps

let head_finish t session = Stamp_queue.peek_finish (head_stamps t session)

(* Eligibility comparisons tolerate float noise: a start time within
   {!Float_cmp.epsilon} relative of V counts as eligible. *)
let le_with_slack = Float_cmp.le_with_slack

let enqueue_session t ~now session =
  let stamps = head_stamps t session in
  let start = Stamp_queue.peek_start stamps
  and finish = Stamp_queue.peek_finish stamps in
  match t.discipline with
  | Sff -> Prioq.Indexed_heap4.add t.ready ~key:session ~prio:finish
  | Seff ->
    let v = Gps_clock.virtual_time t.clock ~now in
    if le_with_slack start v then
      Prioq.Indexed_heap4.add t.ready ~key:session ~prio:finish
    else Prioq.Indexed_heap4.add t.waiting ~key:session ~prio:start

(* Move every waiting session whose head has started GPS service into the
   eligible heap. *)
let promote_eligible t ~v =
  let continue = ref true in
  while !continue do
    match Prioq.Indexed_heap4.min_binding t.waiting with
    | Some (session, start) when le_with_slack start v ->
      ignore (Prioq.Indexed_heap4.pop_min t.waiting);
      Prioq.Indexed_heap4.add t.ready ~key:session ~prio:(head_finish t session)
    | Some _ | None -> continue := false
  done

let make ~discipline ~name ~rate =
  let t =
    {
      discipline;
      clock = Gps_clock.create ~rate;
      sessions = Vec.create ();
      (* The fluid clock integrates per-slot state over the whole busy
         period; a recycled slot cannot be re-initialised mid-flight, so
         closed slots retire instead of returning to a freelist. *)
      pool = Session_pool.create ~name:name ~recycle:false ();
      ready = Prioq.Indexed_heap4.create 16;
      waiting = Prioq.Indexed_heap4.create 16;
      backlogged_count = 0;
      observer = None;
    }
  in
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg (name ^ ".open_session: bad rate");
    let slot = Session_pool.alloc t.pool in
    let idx = Gps_clock.add_session t.clock ~rate in
    let idx' =
      Vec.push t.sessions
        { rate; stamps = Stamp_queue.create (); backlogged = false }
    in
    (* recycle:false means slots are dense: pool, clock and Vec agree. *)
    assert (idx = idx' && idx = slot);
    Session_pool.handle t.pool slot
  in
  let close_session ~now:_ ~policy h =
    let slot = Session_pool.resolve t.pool h in
    let s = Vec.get t.sessions slot in
    if s.backlogged then begin
      match policy with
      | `Drain -> Session_pool.mark_draining t.pool slot
      | `Drop ->
        (* Dropping the queue would leave the fluid GPS system still owing
           service for those bits, skewing V for every other session.
           Deterministic reject: callers must drain GPS-exact policies. *)
        invalid_arg
          (name ^ ".close_session: `Drop of a backlogged session is unsupported")
    end
    else Session_pool.free t.pool slot
  in
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live t.pool session;
    let start, finish = Gps_clock.on_arrival t.clock ~now ~session ~size_bits in
    Stamp_queue.push (Vec.get t.sessions session).stamps ~start ~finish;
    match t.observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_arrive ~now
        ~vtime:(Gps_clock.virtual_time t.clock ~now)
        ~session ~size_bits
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live t.pool session;
    let s = Vec.get t.sessions session in
    if s.backlogged then invalid_arg (name ^ ": backlog of backlogged session");
    s.backlogged <- true;
    t.backlogged_count <- t.backlogged_count + 1;
    enqueue_session t ~now session;
    match t.observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_backlog ~now
        ~vtime:(Gps_clock.virtual_time t.clock ~now)
        ~session ~head_bits
  in
  let drop_served_stamp session =
    Stamp_queue.drop (Vec.get t.sessions session).stamps
  in
  let remove_from_heaps session =
    Prioq.Indexed_heap4.remove t.ready session;
    Prioq.Indexed_heap4.remove t.waiting session
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live t.pool session;
    drop_served_stamp session;
    remove_from_heaps session;
    enqueue_session t ~now session;
    match t.observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_requeue ~now
        ~vtime:(Gps_clock.virtual_time t.clock ~now)
        ~session ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live t.pool session;
    drop_served_stamp session;
    remove_from_heaps session;
    let s = Vec.get t.sessions session in
    if not s.backlogged then invalid_arg (name ^ ": set_idle of idle session");
    s.backlogged <- false;
    t.backlogged_count <- t.backlogged_count - 1;
    if Session_pool.is_draining t.pool session then Session_pool.free t.pool session;
    match t.observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_idle ~now ~vtime:(Gps_clock.virtual_time t.clock ~now) ~session
  in
  let select ~now =
    (match t.discipline with
    | Sff -> ()
    | Seff ->
      let v = Gps_clock.virtual_time t.clock ~now in
      promote_eligible t ~v;
      (* Work-conservation guard: by Property 1 at least one head packet has
         started GPS service whenever the packet system is backlogged, but
         float rounding can leave the eligible set momentarily empty. Fall
         back to the earliest start. *)
      if Prioq.Indexed_heap4.is_empty t.ready then begin
        match Prioq.Indexed_heap4.pop_min t.waiting with
        | Some (session, _) ->
          Prioq.Indexed_heap4.add t.ready ~key:session ~prio:(head_finish t session)
        | None -> ()
      end);
    match Prioq.Indexed_heap4.min_key t.ready with
    | None -> None
    | Some session ->
      (match t.observer with
      | None -> ()
      | Some o ->
        o.Sched_intf.on_select ~now
          ~vtime:(Gps_clock.virtual_time t.clock ~now)
          ~session);
      Some session
  in
  let virtual_time ~now = Gps_clock.virtual_time t.clock ~now in
  {
    Sched_intf.name;
    open_session;
    close_session;
    session_of_handle = (fun h -> Session_pool.resolve t.pool h);
    live_sessions = (fun () -> Session_pool.live_count t.pool);
    arrive;
    backlog;
    requeue;
    set_idle;
    select;
    virtual_time;
    backlogged_count = (fun () -> t.backlogged_count);
    set_observer = (fun o -> t.observer <- o);
  }

let wfq =
  { Sched_intf.kind = "WFQ"; make = (fun ~rate -> make ~discipline:Sff ~name:"WFQ" ~rate) }

let wf2q =
  { Sched_intf.kind = "WF2Q"; make = (fun ~rate -> make ~discipline:Seff ~name:"WF2Q" ~rate) }
