open Sched
module K = Wf2q_kernel

(* A one-node kernel plus the per-packet stamps: each session queues the
   (S, F) of every packet, stamped at arrival, and the head's pair is
   written into the kernel's arena before it is filed. *)
type session = {
  rate : float;
  stamps : Stamp_queue.t; (* per-packet (S, F), stamped at arrival *)
  mutable last_finish : float; (* F of the session's newest packet *)
}

let make ~rate =
  if rate <= 0.0 then invalid_arg "Wf2q_plus_stamped.make: rate must be positive";
  let k = K.create ~rate:[| rate |] ~slots:[| 0 |] in
  let pool = Session_pool.create ~name:"Wf2q_plus_stamped" () in
  let sessions = Vec.create () in
  let stamp_head session =
    let q = (Vec.get sessions session).stamps in
    if Stamp_queue.is_empty q then
      invalid_arg "Wf2q_plus_stamped: session has no stamped packet";
    K.set_stamps k 0 session ~start:(Stamp_queue.peek_start q)
      ~finish:(Stamp_queue.peek_finish q)
  in
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg "Wf2q_plus_stamped.open_session: bad rate";
    let slot = Session_pool.alloc pool in
    K.grow k (slot + 1);
    K.reset_slot k 0 slot ~rate;
    let fresh = { rate; stamps = Stamp_queue.create (); last_finish = 0.0 } in
    if slot = Vec.length sessions then ignore (Vec.push sessions fresh)
    else Vec.set sessions slot fresh;
    Session_pool.handle pool slot
  in
  let close_session ~now:_ ~policy h =
    let slot = Session_pool.resolve pool h in
    match policy with
    | `Drain when K.is_backlogged k 0 slot -> Session_pool.mark_draining pool slot
    | `Drain | `Drop ->
      (* the queued stamps go with the record; a reopened slot gets a
         fresh one *)
      K.remove k 0 slot;
      Session_pool.free pool slot
  in
  (* eq. 6-7: stamp at arrival time with the current virtual time *)
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live pool session;
    let s = Vec.get sessions session in
    let start = Float.max s.last_finish (K.linear_v k 0 ~now) in
    let finish = start +. (size_bits /. s.rate) in
    s.last_finish <- finish;
    Stamp_queue.push s.stamps ~start ~finish;
    match K.observer k 0 with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_arrive ~now ~vtime:(K.linear_v k 0 ~now) ~session ~size_bits
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    if K.is_backlogged k 0 session then
      invalid_arg "Wf2q_plus_stamped: backlog of backlogged session";
    stamp_head session;
    K.enqueue k 0 session ~now ~head_bits
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    if not (K.is_backlogged k 0 session) then
      invalid_arg "Wf2q_plus_stamped: requeue of idle session";
    let q = (Vec.get sessions session).stamps in
    if Stamp_queue.length q < 2 then
      invalid_arg "Wf2q_plus_stamped: requeue without a stamped next packet";
    Stamp_queue.drop q;
    stamp_head session;
    K.unplace k 0 session;
    K.place k 0 session;
    match K.observer k 0 with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_requeue ~now ~vtime:(K.linear_v k 0 ~now) ~session ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live pool session;
    if not (K.is_backlogged k 0 session) then
      invalid_arg "Wf2q_plus_stamped: set_idle of idle session";
    Stamp_queue.drop (Vec.get sessions session).stamps;
    K.set_idle k 0 session ~now;
    if Session_pool.is_draining pool session then Session_pool.free pool session
  in
  let select ~now =
    let slot = K.select k 0 ~now in
    if slot < 0 then None else Some slot
  in
  {
    Sched_intf.name = "WF2Q+pp";
    open_session;
    close_session;
    session_of_handle = (fun h -> Session_pool.resolve pool h);
    live_sessions = (fun () -> Session_pool.live_count pool);
    arrive;
    backlog;
    requeue;
    set_idle;
    select;
    virtual_time = (fun ~now -> K.linear_v k 0 ~now);
    backlogged_count = (fun () -> K.backlogged_count k 0);
    set_observer = K.set_observer k 0;
  }

let factory = { Sched_intf.kind = "WF2Q+pp"; make }
