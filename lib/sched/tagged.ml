(* One skeleton for the six tag-sorted disciplines.

   A discipline is a [rule]: how an arriving packet is stamped (S, F), what
   its virtual time reads, and what happens when the system drains, plus
   three properties — whether the ready heap is keyed by S or F, whether
   selection is SEFF, and whether the stamps come from a fluid system. The
   rest — session pool, per-session stamp queues, ready and waiting heaps,
   the backlogged flag and count, the protocol checks (made before any
   state changes), close with `Drain`/`Drop`, observer dispatch and the
   Sched_intf.t record — is written once below and never asks which
   discipline it serves. *)

module Ih = Prioq.Indexed_heap4

type session = {
  rate : float;
  stamps : Stamp_queue.t; (* (S, F) of every queued packet, head first *)
  mutable last : float; (* the rule's tag memory: last F (SCFQ/SFQ) or VC_i *)
  mutable epoch : int; (* busy epoch [last] was stamped in (SCFQ/SFQ) *)
  mutable backlogged : bool;
}

(* The key of the most recently selected head, written by every select:
   the self-clocked v. Float-only, so the store does not allocate. *)
type clock = { mutable v : float }

type rule = {
  by_start : bool; (* ready heap keyed by S rather than F *)
  seff : bool;
  (* serve only heads with S <= V; the others wait in a heap keyed by S *)
  fluid : bool;
  (* the stamps come from a fluid GPS system, which still owes a closed
     session its queued bits: slots never recycle, and `Drop` of a
     backlogged session is rejected *)
  admit : slot:int -> rate:float -> unit; (* a session opened in [slot] *)
  stamp : now:float -> slot:int -> session -> size_bits:float -> unit;
  (* push the arriving packet's (S, F) onto the session's stamps *)
  vtime : now:float -> float;
  drained : unit -> unit; (* the backlogged count fell to 0 *)
}

let no_admit ~slot:_ ~rate:_ = ()

let make ~name rule_of ~rate =
  let clock = { v = 0.0 } in
  let rule : rule = rule_of ~rate clock in
  let pool = Session_pool.create ~name ~recycle:(not rule.fluid) () in
  let sessions : session Vec.t = Vec.create () in
  let ready = Ih.create 16 and waiting = Ih.create 16 in
  let count = ref 0 in
  let observer : Sched_intf.observer option ref = ref None in
  let fail what = invalid_arg (name ^ ": " ^ what) in
  let[@inline] key s =
    if rule.by_start then Stamp_queue.peek_start s.stamps
    else Stamp_queue.peek_finish s.stamps
  in
  let place ~now slot s =
    let start = Stamp_queue.peek_start s.stamps in
    if rule.seff && not (Float_cmp.le_with_slack start (rule.vtime ~now)) then
      Ih.add waiting ~key:slot ~prio:start
    else Ih.add ready ~key:slot ~prio:(key s)
  in
  let unplace slot =
    Ih.remove ready slot;
    Ih.remove waiting slot
  in
  (* the session stops being backlogged; its queued stamps are gone *)
  let leave slot s =
    unplace slot;
    s.backlogged <- false;
    decr count;
    if !count = 0 then rule.drained ()
  in
  let promote_min () =
    let slot = Ih.min_key_unsafe waiting in
    Ih.drop_min waiting;
    Ih.add ready ~key:slot ~prio:(key (Vec.get sessions slot))
  in
  (* Move every waiting head that has started GPS service ([S <= V]). *)
  let rec promote v =
    if
      (not (Ih.is_empty waiting))
      && Float_cmp.le_with_slack (Ih.min_prio_unsafe waiting) v
    then begin
      promote_min ();
      promote v
    end
  in
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg (name ^ ".open_session: bad rate");
    let slot = Session_pool.alloc pool in
    rule.admit ~slot ~rate;
    let fresh =
      { rate; stamps = Stamp_queue.create (); last = 0.0; epoch = -1; backlogged = false }
    in
    if slot = Vec.length sessions then ignore (Vec.push sessions fresh)
    else Vec.set sessions slot fresh;
    Session_pool.handle pool slot
  in
  let close_session ~now:_ ~policy h =
    let slot = Session_pool.resolve pool h in
    let s = Vec.get sessions slot in
    if not s.backlogged then Session_pool.free pool slot
    else
      match policy with
      | `Drain -> Session_pool.mark_draining pool slot
      | `Drop when rule.fluid ->
        (* dropping the queue would leave the fluid system owing service
           for those bits, skewing V for every other session *)
        invalid_arg (name ^ ".close_session: `Drop of a backlogged session is unsupported")
      | `Drop ->
        Stamp_queue.clear s.stamps;
        leave slot s;
        Session_pool.free pool slot
  in
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live pool session;
    rule.stamp ~now ~slot:session (Vec.get sessions session) ~size_bits;
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_arrive ~now ~vtime:(rule.vtime ~now) ~session ~size_bits
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    let s = Vec.get sessions session in
    if s.backlogged then fail "backlog of backlogged session";
    if Stamp_queue.is_empty s.stamps then fail "backlog of a session with no stamped packet";
    s.backlogged <- true;
    incr count;
    place ~now session s;
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_backlog ~now ~vtime:(rule.vtime ~now) ~session ~head_bits
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live pool session;
    let s = Vec.get sessions session in
    if not s.backlogged then fail "requeue of idle session";
    if Stamp_queue.length s.stamps < 2 then fail "requeue without a stamped next packet";
    Stamp_queue.drop s.stamps;
    unplace session;
    place ~now session s;
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_requeue ~now ~vtime:(rule.vtime ~now) ~session ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live pool session;
    let s = Vec.get sessions session in
    if not s.backlogged then fail "set_idle of idle session";
    Stamp_queue.drop s.stamps;
    leave session s;
    if Session_pool.is_draining pool session then Session_pool.free pool session;
    match !observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_idle ~now ~vtime:(rule.vtime ~now) ~session
  in
  let select ~now =
    if rule.seff then begin
      promote (rule.vtime ~now);
      (* Work conservation: by Property 1 some head has started GPS service
         whenever the packet system is backlogged, but float rounding can
         leave the eligible set momentarily empty. Serve the earliest
         start. *)
      if Ih.is_empty ready && not (Ih.is_empty waiting) then promote_min ()
    end;
    let slot = Ih.min_key_unsafe ready in
    if slot < 0 then None
    else begin
      clock.v <- Ih.min_prio_unsafe ready;
      (match !observer with
      | None -> ()
      | Some o -> o.Sched_intf.on_select ~now ~vtime:(rule.vtime ~now) ~session:slot);
      Some slot
    end
  in
  {
    Sched_intf.name;
    open_session;
    close_session;
    session_of_handle = (fun h -> Session_pool.resolve pool h);
    live_sessions = (fun () -> Session_pool.live_count pool);
    arrive;
    backlog;
    requeue;
    set_idle;
    select;
    virtual_time = rule.vtime;
    backlogged_count = (fun () -> !count);
    set_observer = (fun o -> observer := o);
  }

let factory name rule_of = { Sched_intf.kind = name; make = make ~name rule_of }

(* ---- the six rules ---- *)

(* WFQ / WF²Q: eqs. 6-7 stamps from the exact GPS clock, keyed by F. *)
let gps ~seff ~rate _clock =
  let v_gps = Gps_clock.create ~rate in
  {
    by_start = false;
    seff;
    fluid = true;
    admit =
      (fun ~slot ~rate ->
        (* slots never recycle, so pool and clock indices agree *)
        let idx = Gps_clock.add_session v_gps ~rate in
        assert (idx = slot));
    stamp =
      (fun ~now ~slot s ~size_bits ->
        Gps_clock.on_arrival v_gps ~now ~session:slot ~size_bits s.stamps);
    vtime = (fun ~now -> Gps_clock.virtual_time v_gps ~now);
    drained = ignore;
  }

(* SCFQ / SFQ: S = max(F_prev in this busy epoch, v), F = S + L/r, where v
   is the key of the head last selected; a drained system resets v to 0
   and starts a new epoch, so older tags are never compared. *)
let self_clocked ~by_start ~rate:_ clock =
  let epoch = ref 0 in
  {
    by_start;
    seff = false;
    fluid = false;
    admit = no_admit;
    stamp =
      (fun ~now:_ ~slot:_ s ~size_bits ->
        let prev = if s.epoch = !epoch then s.last else 0.0 in
        let start = Float.max prev clock.v in
        let finish = start +. (size_bits /. s.rate) in
        s.last <- finish;
        s.epoch <- !epoch;
        Stamp_queue.push s.stamps ~start ~finish);
    vtime = (fun ~now:_ -> clock.v);
    drained =
      (fun () ->
        clock.v <- 0.0;
        incr epoch);
  }

(* Virtual Clock: S = F = VC_i = max(now, VC_i) + L/r_i; the virtual time
   is the stamp last selected. *)
let virtual_clock_rule ~rate:_ clock =
  {
    by_start = true;
    seff = false;
    fluid = false;
    admit = no_admit;
    stamp =
      (fun ~now ~slot:_ s ~size_bits ->
        s.last <- Float.max now s.last +. (size_bits /. s.rate);
        Stamp_queue.push s.stamps ~start:s.last ~finish:s.last);
    vtime = (fun ~now:_ -> clock.v);
    drained = ignore;
  }

(* FIFO: S = F = the arrival's rank; the virtual time is the arrival
   count. *)
let fifo_rule ~rate:_ _clock =
  let arrivals = ref 0 in
  {
    by_start = true;
    seff = false;
    fluid = false;
    admit = no_admit;
    stamp =
      (fun ~now:_ ~slot:_ s ~size_bits:_ ->
        incr arrivals;
        let rank = float_of_int !arrivals in
        Stamp_queue.push s.stamps ~start:rank ~finish:rank);
    vtime = (fun ~now:_ -> float_of_int !arrivals);
    drained = ignore;
  }

let wfq = factory "WFQ" (gps ~seff:false)
let wf2q = factory "WF2Q" (gps ~seff:true)
let scfq = factory "SCFQ" (self_clocked ~by_start:false)
let sfq = factory "SFQ" (self_clocked ~by_start:true)
let virtual_clock = factory "VirtualClock" virtual_clock_rule
let fifo = factory "FIFO" fifo_rule
