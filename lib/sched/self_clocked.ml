type flavour = Scfq | Sfq

type session = {
  rate : float;
  stamps : Stamp_queue.t; (* (S, F) per queued packet, unboxed *)
  mutable last_finish : float;
  mutable stamp_epoch : int;
  mutable backlogged : bool;
}

type state = {
  flavour : flavour;
  sessions : session Vec.t;
  pool : Session_pool.t;
  ready : Prioq.Indexed_heap4.t; (* keyed by F (SCFQ) or S (SFQ) *)
  mutable v : float;            (* tag of the packet in service *)
  mutable epoch : int;
  mutable in_service : bool;
  mutable backlogged_count : int;
  mutable observer : Sched_intf.observer option;
}

(* Head-stamp key under the flavour: F for SCFQ, S for SFQ. *)
let head_key_of state stamps =
  match state.flavour with
  | Scfq -> Stamp_queue.peek_finish stamps
  | Sfq -> Stamp_queue.peek_start stamps

let make ~flavour ~name ~rate:_ =
  let t =
    {
      flavour;
      sessions = Vec.create ();
      pool = Session_pool.create ~name:name ();
      ready = Prioq.Indexed_heap4.create 16;
      v = 0.0;
      epoch = 0;
      in_service = false;
      backlogged_count = 0;
      observer = None;
    }
  in
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg (name ^ ".open_session: bad rate");
    let slot = Session_pool.alloc t.pool in
    let fresh =
      {
        rate;
        stamps = Stamp_queue.create ();
        last_finish = 0.0;
        stamp_epoch = -1;
        backlogged = false;
      }
    in
    if slot = Vec.length t.sessions then ignore (Vec.push t.sessions fresh)
    else Vec.set t.sessions slot fresh;
    Session_pool.handle t.pool slot
  in
  let close_session ~now:_ ~policy h =
    let slot = Session_pool.resolve t.pool h in
    let s = Vec.get t.sessions slot in
    if s.backlogged then begin
      match policy with
      | `Drain -> Session_pool.mark_draining t.pool slot
      | `Drop ->
        Prioq.Indexed_heap4.remove t.ready slot;
        Stamp_queue.clear s.stamps;
        s.backlogged <- false;
        t.backlogged_count <- t.backlogged_count - 1;
        if t.backlogged_count = 0 then begin
          (* same busy-period reset as set_idle *)
          t.in_service <- false;
          t.v <- 0.0;
          t.epoch <- t.epoch + 1
        end;
        Session_pool.free t.pool slot
    end
    else Session_pool.free t.pool slot
  in
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live t.pool session;
    let s = Vec.get t.sessions session in
    let prev = if s.stamp_epoch = t.epoch then s.last_finish else 0.0 in
    let start = Float.max prev t.v in
    let finish = start +. (size_bits /. s.rate) in
    s.last_finish <- finish;
    s.stamp_epoch <- t.epoch;
    Stamp_queue.push s.stamps ~start ~finish;
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_arrive ~now ~vtime:t.v ~session ~size_bits
  in
  let head_key session =
    let s = Vec.get t.sessions session in
    if Stamp_queue.is_empty s.stamps then
      invalid_arg (name ^ ": session has no stamped packet");
    head_key_of t s.stamps
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live t.pool session;
    let s = Vec.get t.sessions session in
    s.backlogged <- true;
    t.backlogged_count <- t.backlogged_count + 1;
    Prioq.Indexed_heap4.add t.ready ~key:session ~prio:(head_key session);
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_backlog ~now ~vtime:t.v ~session ~head_bits
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live t.pool session;
    let s = Vec.get t.sessions session in
    Stamp_queue.drop s.stamps;
    Prioq.Indexed_heap4.remove t.ready session;
    Prioq.Indexed_heap4.add t.ready ~key:session ~prio:(head_key session);
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_requeue ~now ~vtime:t.v ~session ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live t.pool session;
    let s = Vec.get t.sessions session in
    Stamp_queue.drop s.stamps;
    Prioq.Indexed_heap4.remove t.ready session;
    s.backlogged <- false;
    t.backlogged_count <- t.backlogged_count - 1;
    if t.backlogged_count = 0 then begin
      (* busy period over: reset the self-clock *)
      t.in_service <- false;
      t.v <- 0.0;
      t.epoch <- t.epoch + 1
    end;
    if Session_pool.is_draining t.pool session then Session_pool.free t.pool session;
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_idle ~now ~vtime:t.v ~session
  in
  let select ~now =
    match Prioq.Indexed_heap4.min_key t.ready with
    | None -> None
    | Some session ->
      let s = Vec.get t.sessions session in
      assert (not (Stamp_queue.is_empty s.stamps));
      t.v <- head_key_of t s.stamps;
      t.in_service <- true;
      (match t.observer with
      | None -> ()
      | Some o -> o.Sched_intf.on_select ~now ~vtime:t.v ~session);
      Some session
  in
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
    virtual_time = (fun ~now:_ -> t.v);
    backlogged_count = (fun () -> t.backlogged_count);
    set_observer = (fun o -> t.observer <- o);
  }

let scfq =
  { Sched_intf.kind = "SCFQ"; make = (fun ~rate -> make ~flavour:Scfq ~name:"SCFQ" ~rate) }

let sfq =
  { Sched_intf.kind = "SFQ"; make = (fun ~rate -> make ~flavour:Sfq ~name:"SFQ" ~rate) }
