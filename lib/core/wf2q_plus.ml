open Sched
module K = Wf2q_kernel

(* A one-node kernel: the session id is the slot in node 0, handed out by
   the pool's freelist. A recycled slot is re-initialised to fresh-session
   state, so its first backlog stamps S = V exactly as a new session's. *)
let make ~rate =
  if rate <= 0.0 then invalid_arg "Wf2q_plus.make: rate must be positive";
  let k = K.create ~rate:[| rate |] ~slots:[| 0 |] in
  let pool = Session_pool.create ~name:"Wf2q_plus" () in
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg "Wf2q_plus.open_session: rate must be positive";
    let slot = Session_pool.alloc pool in
    K.grow k (slot + 1);
    K.reset_slot k 0 slot ~rate;
    Session_pool.handle pool slot
  in
  let close_session ~now:_ ~policy h =
    let slot = Session_pool.resolve pool h in
    match policy with
    | `Drain when K.is_backlogged k 0 slot ->
      (* keep scheduling; set_idle frees the slot when the queue empties *)
      Session_pool.mark_draining pool slot
    | `Drain | `Drop ->
      K.remove k 0 slot;
      Session_pool.free pool slot
  in
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live pool session;
    match K.observer k 0 with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_arrive ~now ~vtime:(K.linear_v k 0 ~now) ~session ~size_bits
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    if K.is_backlogged k 0 session then
      invalid_arg "Wf2q_plus: backlog of backlogged session";
    K.backlog k 0 session ~now ~head_bits
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    if not (K.is_backlogged k 0 session) then
      invalid_arg "Wf2q_plus: requeue of idle session";
    K.requeue k 0 session ~now ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live pool session;
    if not (K.is_backlogged k 0 session) then
      invalid_arg "Wf2q_plus: set_idle of idle session";
    K.set_idle k 0 session ~now;
    if Session_pool.is_draining pool session then Session_pool.free pool session
  in
  let select ~now =
    let slot = K.select k 0 ~now in
    if slot < 0 then None else Some slot
  in
  {
    Sched_intf.name = "WF2Q+";
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

let factory = { Sched_intf.kind = "WF2Q+"; make }
