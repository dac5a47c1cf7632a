type session = { order : int Queue.t; mutable backlogged : bool }

let make ~rate:_ =
  let sessions : session Vec.t = Vec.create () in
  let pool = Session_pool.create ~name:"Fifo_sched" () in
  let ready = Prioq.Indexed_heap4.create 16 in
  let backlogged_count = ref 0 in
  let arrival_counter = ref 0 in
  let observer : Sched_intf.observer option ref = ref None in
  let open_session ~rate:_ =
    let slot = Session_pool.alloc pool in
    let fresh = { order = Queue.create (); backlogged = false } in
    if slot = Vec.length sessions then ignore (Vec.push sessions fresh)
    else Vec.set sessions slot fresh;
    Session_pool.handle pool slot
  in
  let close_session ~now:_ ~policy h =
    let slot = Session_pool.resolve pool h in
    let s = Vec.get sessions slot in
    if s.backlogged then begin
      match policy with
      | `Drain -> Session_pool.mark_draining pool slot
      | `Drop ->
        Prioq.Indexed_heap4.remove ready slot;
        Queue.clear s.order;
        s.backlogged <- false;
        decr backlogged_count;
        Session_pool.free pool slot
    end
    else Session_pool.free pool slot
  in
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live pool session;
    incr arrival_counter;
    Queue.push !arrival_counter (Vec.get sessions session).order;
    match !observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_arrive ~now ~vtime:(float_of_int !arrival_counter) ~session
        ~size_bits
  in
  let head_order session =
    match Queue.peek_opt (Vec.get sessions session).order with
    | Some n -> float_of_int n
    | None -> invalid_arg "Fifo_sched: session has no queued packet"
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    (Vec.get sessions session).backlogged <- true;
    incr backlogged_count;
    Prioq.Indexed_heap4.add ready ~key:session ~prio:(head_order session);
    match !observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_backlog ~now ~vtime:(float_of_int !arrival_counter) ~session
        ~head_bits
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    ignore (Queue.pop (Vec.get sessions session).order);
    Prioq.Indexed_heap4.remove ready session;
    Prioq.Indexed_heap4.add ready ~key:session ~prio:(head_order session);
    match !observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_requeue ~now ~vtime:(float_of_int !arrival_counter) ~session
        ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live pool session;
    let s = Vec.get sessions session in
    ignore (Queue.pop s.order);
    Prioq.Indexed_heap4.remove ready session;
    s.backlogged <- false;
    decr backlogged_count;
    if Session_pool.is_draining pool session then Session_pool.free pool session;
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_idle ~now ~vtime:(float_of_int !arrival_counter) ~session
  in
  let select ~now =
    match Prioq.Indexed_heap4.min_key ready with
    | None -> None
    | Some session ->
      (match !observer with
      | None -> ()
      | Some o ->
        o.Sched_intf.on_select ~now ~vtime:(float_of_int !arrival_counter) ~session);
      Some session
  in
  {
    Sched_intf.name = "FIFO";
    open_session;
    close_session;
    session_of_handle = (fun h -> Session_pool.resolve pool h);
    live_sessions = (fun () -> Session_pool.live_count pool);
    arrive;
    backlog;
    requeue;
    set_idle;
    select;
    virtual_time = (fun ~now:_ -> float_of_int !arrival_counter);
    backlogged_count = (fun () -> !backlogged_count);
    set_observer = (fun o -> observer := o);
  }

let factory = { Sched_intf.kind = "FIFO"; make }
