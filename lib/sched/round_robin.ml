type session = {
  rate : float;
  mutable head_bits : float;
  mutable deficit : float; (* bits (DRR) or packet credits (WRR) *)
  mutable topped : bool;   (* quantum already granted on this visit *)
  mutable backlogged : bool;
}

type state = {
  server_rate : float;
  quantum_of : rate:float -> server_rate:float -> float;
  serve_cost : head_bits:float -> float;
  sessions : session Vec.t;
  pool : Session_pool.t;
  active : int Queue.t;
  mutable backlogged_count : int;
  mutable rounds : float; (* coarse "virtual time": rounds completed *)
  mutable observer : Sched_intf.observer option;
}

let make_policy ~name ~quantum_of ~serve_cost ~rate =
  let t =
    {
      server_rate = rate;
      quantum_of;
      serve_cost;
      sessions = Vec.create ();
      pool = Session_pool.create ~name:name ();
      active = Queue.create ();
      backlogged_count = 0;
      rounds = 0.0;
      observer = None;
    }
  in
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg (name ^ ".open_session: bad rate");
    let slot = Session_pool.alloc t.pool in
    let fresh =
      { rate; head_bits = 0.0; deficit = 0.0; topped = false; backlogged = false }
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
        (* The round-robin list has no removal primitive; rebuild it without
           the dropped session (close is not a hot-path operation here). *)
        let keep = Queue.create () in
        Queue.iter (fun s' -> if s' <> slot then Queue.push s' keep) t.active;
        Queue.clear t.active;
        Queue.transfer keep t.active;
        s.backlogged <- false;
        s.deficit <- 0.0;
        s.topped <- false;
        t.backlogged_count <- t.backlogged_count - 1;
        Session_pool.free t.pool slot
    end
    else Session_pool.free t.pool slot
  in
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live t.pool session;
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_arrive ~now ~vtime:t.rounds ~session ~size_bits
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live t.pool session;
    let s = Vec.get t.sessions session in
    if s.backlogged then invalid_arg (name ^ ": backlog of backlogged session");
    s.backlogged <- true;
    s.head_bits <- head_bits;
    s.deficit <- 0.0;
    s.topped <- false;
    t.backlogged_count <- t.backlogged_count + 1;
    Queue.push session t.active;
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_backlog ~now ~vtime:t.rounds ~session ~head_bits
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live t.pool session;
    let s = Vec.get t.sessions session in
    if not s.backlogged then invalid_arg (name ^ ": requeue of idle session");
    s.head_bits <- head_bits;
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_requeue ~now ~vtime:t.rounds ~session ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live t.pool session;
    let s = Vec.get t.sessions session in
    if not s.backlogged then invalid_arg (name ^ ": set_idle of idle session");
    (* The served session is always at the front of the active list. *)
    (match Queue.peek_opt t.active with
    | Some front when front = session -> ignore (Queue.pop t.active)
    | Some _ | None -> invalid_arg (name ^ ": set_idle of non-front session"));
    s.backlogged <- false;
    s.deficit <- 0.0;
    s.topped <- false;
    t.backlogged_count <- t.backlogged_count - 1;
    if Session_pool.is_draining t.pool session then Session_pool.free t.pool session;
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_idle ~now ~vtime:t.rounds ~session
  in
  let rec select ~now =
    match Queue.peek_opt t.active with
    | None -> None
    | Some session ->
      let s = Vec.get t.sessions session in
      if not s.topped then begin
        s.deficit <- s.deficit +. t.quantum_of ~rate:s.rate ~server_rate:t.server_rate;
        s.topped <- true
      end;
      let cost = t.serve_cost ~head_bits:s.head_bits in
      if s.deficit >= cost then begin
        s.deficit <- s.deficit -. cost;
        (match t.observer with
        | None -> ()
        | Some o -> o.Sched_intf.on_select ~now ~vtime:t.rounds ~session);
        Some session
      end
      else begin
        (* rotate: quantum carries over (DRR's deficit), freshness resets *)
        ignore (Queue.pop t.active);
        s.topped <- false;
        Queue.push session t.active;
        t.rounds <- t.rounds +. (1.0 /. float_of_int (max 1 t.backlogged_count));
        select ~now
      end
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
    virtual_time = (fun ~now:_ -> t.rounds);
    backlogged_count = (fun () -> t.backlogged_count);
    set_observer = (fun o -> t.observer <- o);
  }

let drr ?(frame_bits = 65536.0) () =
  let quantum_of ~rate ~server_rate = frame_bits *. rate /. server_rate in
  let serve_cost ~head_bits = head_bits in
  {
    Sched_intf.kind = "DRR";
    make = (fun ~rate -> make_policy ~name:"DRR" ~quantum_of ~serve_cost ~rate);
  }

let wrr ?(packets_per_round = 16) () =
  let quantum_of ~rate ~server_rate =
    Float.max 1.0 (Float.round (float_of_int packets_per_round *. rate /. server_rate))
  in
  let serve_cost ~head_bits:_ = 1.0 in
  {
    Sched_intf.kind = "WRR";
    make = (fun ~rate -> make_policy ~name:"WRR" ~quantum_of ~serve_cost ~rate);
  }
