open Sched

(* Fixed-point WF2Q+: the SoA layout of Wf2q_plus with every virtual-time
   field carried as integer ticks (2^shift per vtime-second) and the heaps
   swapped for the int-priority Indexed_heap_int. The two quantization
   points — session rate -> ticks-per-bit, packet size -> whole bits —
   both happen at the interface; past them all stamp arithmetic (eqs.
   27-29) is exact integer addition and every comparison is an exact
   machine compare, so there is no Float_cmp slack and no accumulated
   rounding (DESIGN.md §13). *)
type state = {
  shift : int;
  server_ipb : int;                 (* server ticks per bit: 2^shift / R *)
  mutable ipb : int array;          (* per-session ticks per bit *)
  mutable starts : int array;       (* S_i ticks *)
  mutable finishes : int array;     (* F_i ticks *)
  mutable head_bits : int array;    (* head size, whole bits *)
  mutable backlogged : Bytes.t;
  pool : Session_pool.t;
  eligible : Prioq.Indexed_heap_int.t; (* S_i <= V, keyed by F_i *)
  waiting : Prioq.Indexed_heap_int.t;  (* S_i >  V, keyed by S_i *)
  mutable v : int;                  (* V in ticks, post-dated as in RESTART-NODE *)
  mutable v_time : float;           (* server-time stamp of [v] (real seconds) *)
  mutable backlogged_count : int;
  mutable observer : Sched_intf.observer option;
}

type t = state

(* The V(t)+τ term of eq. 27, in ticks. Real elapsed time is the one
   inherently-float input; it is converted to ticks here, once per
   operation. When the engine is driven back-to-back (now = v_time, the
   reference-time pattern of Server/Hier), the elapsed term is exactly 0
   and linear_v is the exact integer [v]. *)
let linear_v t ~now = t.v + Fixed.of_float ~shift:t.shift (now -. t.v_time)

let to_vtime t ticks = Fixed.to_float ~shift:t.shift ticks

let bits_of_float size_bits =
  if size_bits < 0.0 then invalid_arg "Wf2q_plus_fixed: negative size";
  int_of_float (Float.round size_bits)

let ensure_capacity t slot =
  let cap = Array.length t.ipb in
  if slot >= cap then begin
    let cap' = max 16 (max (slot + 1) (2 * cap)) in
    let grow a =
      let b = Array.make cap' 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    t.ipb <- grow t.ipb;
    t.starts <- grow t.starts;
    t.finishes <- grow t.finishes;
    t.head_bits <- grow t.head_bits;
    let b = Bytes.make cap' '\000' in
    Bytes.blit t.backlogged 0 b 0 cap;
    t.backlogged <- b
  end

let place t session =
  if t.starts.(session) <= t.v then
    Prioq.Indexed_heap_int.add t.eligible ~key:session ~prio:t.finishes.(session)
  else Prioq.Indexed_heap_int.add t.waiting ~key:session ~prio:t.starts.(session)

let promote t ~threshold =
  let continue = ref true in
  while !continue && not (Prioq.Indexed_heap_int.is_empty t.waiting) do
    let start = Prioq.Indexed_heap_int.min_prio_unsafe t.waiting in
    if start <= threshold then begin
      let session = Prioq.Indexed_heap_int.min_key_unsafe t.waiting in
      Prioq.Indexed_heap_int.drop_min t.waiting;
      Prioq.Indexed_heap_int.add t.eligible ~key:session ~prio:t.finishes.(session)
    end
    else continue := false
  done

let create ?(shift = Fixed.default_shift) ~rate () =
  if rate <= 0.0 then invalid_arg "Wf2q_plus_fixed.create: rate must be positive";
  if shift < 1 || shift > 40 then invalid_arg "Wf2q_plus_fixed.create: bad shift";
  {
    shift;
    server_ipb = Fixed.ticks_per_bit ~shift ~rate;
    ipb = [||];
    starts = [||];
    finishes = [||];
    head_bits = [||];
    backlogged = Bytes.create 0;
    pool = Session_pool.create ~name:"Wf2q_plus_fixed" ();
    eligible = Prioq.Indexed_heap_int.create 16;
    waiting = Prioq.Indexed_heap_int.create 16;
    v = 0;
    v_time = 0.0;
    backlogged_count = 0;
    observer = None;
  }

let shift t = t.shift
let v_ticks t = t.v

let policy t =
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg "Wf2q_plus_fixed.open_session: rate must be positive";
    let slot = Session_pool.alloc t.pool in
    ensure_capacity t slot;
    (* the ONE quantization of this session's rate *)
    t.ipb.(slot) <- Fixed.ticks_per_bit ~shift:t.shift ~rate;
    t.starts.(slot) <- 0;
    t.finishes.(slot) <- 0;
    t.head_bits.(slot) <- 0;
    Bytes.set t.backlogged slot '\000';
    Session_pool.handle t.pool slot
  in
  let close_session ~now:_ ~policy h =
    let slot = Session_pool.resolve t.pool h in
    if Bytes.get t.backlogged slot <> '\000' then begin
      match policy with
      | `Drain -> Session_pool.mark_draining t.pool slot
      | `Drop ->
        Prioq.Indexed_heap_int.remove t.eligible slot;
        Prioq.Indexed_heap_int.remove t.waiting slot;
        Bytes.set t.backlogged slot '\000';
        t.backlogged_count <- t.backlogged_count - 1;
        Session_pool.free t.pool slot
    end
    else Session_pool.free t.pool slot
  in
  let arrive ~now ~session ~size_bits =
    Session_pool.check_live t.pool session;
    match t.observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_arrive ~now ~vtime:(to_vtime t (linear_v t ~now)) ~session ~size_bits
  in
  let backlog ~now ~session ~head_bits =
    Session_pool.check_live t.pool session;
    if Bytes.get t.backlogged session <> '\000' then
      invalid_arg "Wf2q_plus_fixed: backlog of backlogged session";
    let bits = bits_of_float head_bits in
    (* eq. 28, empty-queue branch: S = max(F, V(now)) *)
    let start = max t.finishes.(session) (linear_v t ~now) in
    t.starts.(session) <- start;
    t.finishes.(session) <- start + (bits * t.ipb.(session));
    t.head_bits.(session) <- bits;
    Bytes.set t.backlogged session '\001';
    t.backlogged_count <- t.backlogged_count + 1;
    place t session;
    match t.observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_backlog ~now ~vtime:(to_vtime t (linear_v t ~now)) ~session ~head_bits
  in
  let requeue ~now ~session ~head_bits =
    Session_pool.check_live t.pool session;
    if Bytes.get t.backlogged session = '\000' then
      invalid_arg "Wf2q_plus_fixed: requeue of idle session";
    let bits = bits_of_float head_bits in
    (* eq. 28, busy branch: S = F *)
    let start = t.finishes.(session) in
    let finish = start + (bits * t.ipb.(session)) in
    t.starts.(session) <- start;
    t.finishes.(session) <- finish;
    t.head_bits.(session) <- bits;
    if Prioq.Indexed_heap_int.mem t.eligible session then
      if start <= t.v then
        Prioq.Indexed_heap_int.update t.eligible ~key:session ~prio:finish
      else begin
        Prioq.Indexed_heap_int.remove t.eligible session;
        Prioq.Indexed_heap_int.add t.waiting ~key:session ~prio:start
      end
    else begin
      Prioq.Indexed_heap_int.remove t.waiting session;
      place t session
    end;
    match t.observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_requeue ~now ~vtime:(to_vtime t (linear_v t ~now)) ~session ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live t.pool session;
    if Bytes.get t.backlogged session = '\000' then
      invalid_arg "Wf2q_plus_fixed: set_idle of idle session";
    Bytes.set t.backlogged session '\000';
    t.backlogged_count <- t.backlogged_count - 1;
    Prioq.Indexed_heap_int.remove t.eligible session;
    Prioq.Indexed_heap_int.remove t.waiting session;
    if Session_pool.is_draining t.pool session then Session_pool.free t.pool session;
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_idle ~now ~vtime:(to_vtime t (linear_v t ~now)) ~session
  in
  let select ~now =
    if t.backlogged_count = 0 then None
    else begin
      (* eq. 27: threshold = max(V(t)+τ, min S) — exact int max. *)
      let lin = linear_v t ~now in
      let threshold =
        if
          Prioq.Indexed_heap_int.is_empty t.eligible
          && not (Prioq.Indexed_heap_int.is_empty t.waiting)
        then max lin (Prioq.Indexed_heap_int.min_prio_unsafe t.waiting)
        else lin
      in
      promote t ~threshold;
      let session = Prioq.Indexed_heap_int.min_key_unsafe t.eligible in
      if session < 0 then None (* unreachable: threshold >= min S guarantees a candidate *)
      else begin
        (* RESTART-NODE lines 12-13: post-date V (in exact ticks) and its
           real-time stamp to the committed packet's completion. *)
        let service_ticks = t.head_bits.(session) * t.server_ipb in
        t.v <- threshold + service_ticks;
        t.v_time <- now +. to_vtime t service_ticks;
        (match t.observer with
        | None -> ()
        | Some o -> o.Sched_intf.on_select ~now ~vtime:(to_vtime t t.v) ~session);
        Some session
      end
    end
  in
  {
    Sched_intf.name = "WF2Q+fx";
    open_session;
    close_session;
    session_of_handle = (fun h -> Session_pool.resolve t.pool h);
    live_sessions = (fun () -> Session_pool.live_count t.pool);
    arrive;
    backlog;
    requeue;
    set_idle;
    select;
    virtual_time = (fun ~now -> to_vtime t (linear_v t ~now));
    backlogged_count = (fun () -> t.backlogged_count);
    set_observer = (fun o -> t.observer <- o);
  }

let make ~rate = policy (create ~rate ())
let factory = { Sched_intf.kind = "WF2Q+fx"; make }
