type session = {
  rate : float;
  (* single-coordinate stamps: only the start ring of the pair queue is
     meaningful (finish mirrors it) *)
  stamps : Stamp_queue.t;
  mutable vc : float;
  mutable backlogged : bool;
}

let make ~rate:_ =
  let sessions : session Vec.t = Vec.create () in
  let pool = Session_pool.create ~name:"Virtual_clock" () in
  let ready = Prioq.Indexed_heap4.create 16 in
  let backlogged_count = ref 0 in
  let last_selected_stamp = ref 0.0 in
  let observer : Sched_intf.observer option ref = ref None in
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg "Virtual_clock.open_session: bad rate";
    let slot = Session_pool.alloc pool in
    let fresh =
      { rate; stamps = Stamp_queue.create (); vc = 0.0; backlogged = false }
    in
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
        Stamp_queue.clear s.stamps;
        s.backlogged <- false;
        decr backlogged_count;
        Session_pool.free pool slot
    end
    else Session_pool.free pool slot
  in
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live pool session;
    let s = Vec.get sessions session in
    s.vc <- Float.max now s.vc +. (size_bits /. s.rate);
    Stamp_queue.push s.stamps ~start:s.vc ~finish:s.vc;
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_arrive ~now ~vtime:!last_selected_stamp ~session ~size_bits
  in
  let head_stamp session =
    let s = Vec.get sessions session in
    if Stamp_queue.is_empty s.stamps then
      invalid_arg "Virtual_clock: session has no stamped packet";
    Stamp_queue.peek_start s.stamps
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    (Vec.get sessions session).backlogged <- true;
    incr backlogged_count;
    Prioq.Indexed_heap4.add ready ~key:session ~prio:(head_stamp session);
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_backlog ~now ~vtime:!last_selected_stamp ~session ~head_bits
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    Stamp_queue.drop (Vec.get sessions session).stamps;
    Prioq.Indexed_heap4.remove ready session;
    Prioq.Indexed_heap4.add ready ~key:session ~prio:(head_stamp session);
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_requeue ~now ~vtime:!last_selected_stamp ~session ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live pool session;
    let s = Vec.get sessions session in
    Stamp_queue.drop s.stamps;
    Prioq.Indexed_heap4.remove ready session;
    s.backlogged <- false;
    decr backlogged_count;
    if Session_pool.is_draining pool session then Session_pool.free pool session;
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_idle ~now ~vtime:!last_selected_stamp ~session
  in
  let select ~now =
    match Prioq.Indexed_heap4.min_binding ready with
    | None -> None
    | Some (session, stamp) ->
      last_selected_stamp := stamp;
      (match !observer with
      | None -> ()
      | Some o -> o.Sched_intf.on_select ~now ~vtime:stamp ~session);
      Some session
  in
  {
    Sched_intf.name = "VirtualClock";
    open_session;
    close_session;
    session_of_handle = (fun h -> Session_pool.resolve pool h);
    live_sessions = (fun () -> Session_pool.live_count pool);
    arrive;
    backlog;
    requeue;
    set_idle;
    select;
    virtual_time = (fun ~now:_ -> !last_selected_stamp);
    backlogged_count = (fun () -> !backlogged_count);
    set_observer = (fun o -> observer := o);
  }

let factory = { Sched_intf.kind = "VirtualClock"; make }
