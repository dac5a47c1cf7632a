open Sched
module H = Prioq.Indexed_heap4

(* Fixed-point WF2Q+: the SoA layout of Wf2q_plus with every virtual-time
   field carried as integer ticks (2^Fixed.shift per vtime-second). The
   heaps are the float-priority Indexed_heap4, keyed by each stamp's bit
   pattern (Fixed.prio), which orders nonnegative ticks exactly as the
   ints do. The two quantization points — session rate -> ticks-per-bit,
   packet size -> whole bits — both happen at the interface; past them
   all stamp arithmetic (eqs. 27-29) is exact integer addition and every
   comparison is an exact machine compare, so there is no Float_cmp
   slack and no accumulated rounding (DESIGN.md §13). *)
type state = {
  server_ipb : int;                 (* server ticks per bit: 2^shift / R *)
  mutable ipb : int array;          (* per-session ticks per bit *)
  mutable starts : int array;       (* S_i ticks *)
  mutable finishes : int array;     (* F_i ticks *)
  mutable head_bits : int array;    (* head size, whole bits *)
  mutable backlogged : Bytes.t;
  pool : Session_pool.t;
  eligible : H.t;                   (* S_i <= V, keyed by prio F_i *)
  waiting : H.t;                    (* S_i >  V, keyed by prio S_i *)
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
let linear_v t ~now = t.v + Fixed.of_float (now -. t.v_time)

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
    H.add t.eligible ~key:session ~prio:(Fixed.prio t.finishes.(session))
  else H.add t.waiting ~key:session ~prio:(Fixed.prio t.starts.(session))

(* min S of a nonempty waiting heap, back in ticks *)
let min_start t = Fixed.ticks_of_prio (H.min_prio_unsafe t.waiting)

let promote t ~threshold =
  let continue = ref true in
  while !continue && not (H.is_empty t.waiting) do
    if min_start t <= threshold then begin
      let session = H.min_key_unsafe t.waiting in
      H.drop_min t.waiting;
      H.add t.eligible ~key:session ~prio:(Fixed.prio t.finishes.(session))
    end
    else continue := false
  done

let create ~rate =
  if rate <= 0.0 then invalid_arg "Wf2q_plus_fixed.create: rate must be positive";
  {
    server_ipb = Fixed.ticks_per_bit ~rate;
    ipb = [||];
    starts = [||];
    finishes = [||];
    head_bits = [||];
    backlogged = Bytes.create 0;
    pool = Session_pool.create ~name:"Wf2q_plus_fixed" ();
    eligible = H.create 16;
    waiting = H.create 16;
    v = 0;
    v_time = 0.0;
    backlogged_count = 0;
    observer = None;
  }

let v_ticks t = t.v

let policy t =
  let open_session ~rate =
    if rate <= 0.0 then invalid_arg "Wf2q_plus_fixed.open_session: rate must be positive";
    let slot = Session_pool.alloc t.pool in
    ensure_capacity t slot;
    (* the ONE quantization of this session's rate *)
    t.ipb.(slot) <- Fixed.ticks_per_bit ~rate;
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
        H.remove t.eligible slot;
        H.remove t.waiting slot;
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
      o.Sched_intf.on_arrive ~now ~vtime:(Fixed.to_float (linear_v t ~now)) ~session ~size_bits
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
      o.Sched_intf.on_backlog ~now ~vtime:(Fixed.to_float (linear_v t ~now)) ~session ~head_bits
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
    if H.mem t.eligible session then
      if start <= t.v then
        H.update t.eligible ~key:session ~prio:(Fixed.prio finish)
      else begin
        H.remove t.eligible session;
        H.add t.waiting ~key:session ~prio:(Fixed.prio start)
      end
    else begin
      H.remove t.waiting session;
      place t session
    end;
    match t.observer with
    | None -> ()
    | Some o ->
      o.Sched_intf.on_requeue ~now ~vtime:(Fixed.to_float (linear_v t ~now)) ~session ~head_bits
  in
  let set_idle ~now ~session =
    Session_pool.check_live t.pool session;
    if Bytes.get t.backlogged session = '\000' then
      invalid_arg "Wf2q_plus_fixed: set_idle of idle session";
    Bytes.set t.backlogged session '\000';
    t.backlogged_count <- t.backlogged_count - 1;
    H.remove t.eligible session;
    H.remove t.waiting session;
    if Session_pool.is_draining t.pool session then Session_pool.free t.pool session;
    match t.observer with
    | None -> ()
    | Some o -> o.Sched_intf.on_idle ~now ~vtime:(Fixed.to_float (linear_v t ~now)) ~session
  in
  let select ~now =
    if t.backlogged_count = 0 then None
    else begin
      (* eq. 27: threshold = max(V(t)+τ, min S) — exact int max. *)
      let lin = linear_v t ~now in
      let threshold =
        if
          H.is_empty t.eligible
          && not (H.is_empty t.waiting)
        then max lin (min_start t)
        else lin
      in
      promote t ~threshold;
      let session = H.min_key_unsafe t.eligible in
      if session < 0 then None (* unreachable: threshold >= min S guarantees a candidate *)
      else begin
        (* RESTART-NODE lines 12-13: post-date V (in exact ticks) and its
           real-time stamp to the committed packet's completion. *)
        let service_ticks = t.head_bits.(session) * t.server_ipb in
        t.v <- threshold + service_ticks;
        t.v_time <- now +. Fixed.to_float service_ticks;
        (match t.observer with
        | None -> ()
        | Some o -> o.Sched_intf.on_select ~now ~vtime:(Fixed.to_float t.v) ~session);
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
    virtual_time = (fun ~now -> Fixed.to_float (linear_v t ~now));
    backlogged_count = (fun () -> t.backlogged_count);
    set_observer = (fun o -> t.observer <- o);
  }

let make ~rate = policy (create ~rate)
let factory = { Sched_intf.kind = "WF2Q+fx"; make }
