type session = {
  rate : float;
  mutable last_finish : float; (* virtual finish of the session's last packet *)
  mutable stamp_epoch : int;   (* epoch in which last_finish was computed *)
  mutable in_fluid : bool;     (* currently backlogged in the GPS system *)
}

type t = {
  rate : float;
  sessions : session Vec.t;
  departures : Prioq.Indexed_heap4.t; (* fluid-backlogged sessions keyed by last_finish *)
  mutable active_rate_sum : float;   (* Σ r_i over fluid-backlogged sessions *)
  mutable v : float;
  mutable v_time : float;            (* server time at which [v] was computed *)
  mutable epoch : int;
}

let create ~rate =
  if rate <= 0.0 then invalid_arg "Gps_clock.create: rate must be positive";
  {
    rate;
    sessions = Vec.create ();
    departures = Prioq.Indexed_heap4.create 16;
    active_rate_sum = 0.0;
    v = 0.0;
    v_time = 0.0;
    epoch = 0;
  }

let add_session t ~rate =
  if rate <= 0.0 then invalid_arg "Gps_clock.add_session: rate must be positive";
  Vec.push t.sessions
    { rate; last_finish = 0.0; stamp_epoch = -1; in_fluid = false }

(* Replay fluid departures between [t.v_time] and [now]. Each iteration
   either retires the session with the smallest virtual finish (a fluid
   departure epoch) or consumes the remaining real-time interval. *)
let rec advance t ~now =
  if now > t.v_time then begin
    match Prioq.Indexed_heap4.min_binding t.departures with
    | None -> t.v_time <- now (* fluid system idle: V frozen (at 0) *)
    | Some (idx, f_min) ->
      let slope = t.rate /. t.active_rate_sum in
      let dt_to_departure = (f_min -. t.v) /. slope in
      if t.v_time +. dt_to_departure <= now then begin
        let s = Vec.get t.sessions idx in
        t.v <- f_min;
        t.v_time <- t.v_time +. dt_to_departure;
        ignore (Prioq.Indexed_heap4.pop_min t.departures);
        s.in_fluid <- false;
        t.active_rate_sum <- t.active_rate_sum -. s.rate;
        if Prioq.Indexed_heap4.is_empty t.departures then begin
          (* busy period ended: reset per Parekh–Gallager *)
          t.active_rate_sum <- 0.0;
          t.v <- 0.0;
          t.epoch <- t.epoch + 1;
          t.v_time <- now
        end
        else advance t ~now
      end
      else begin
        t.v <- t.v +. ((now -. t.v_time) *. slope);
        t.v_time <- now
      end
  end

let on_arrival t ~now ~session ~size_bits stamps =
  if size_bits <= 0.0 then invalid_arg "Gps_clock.on_arrival: size must be positive";
  advance t ~now;
  let s = Vec.get t.sessions session in
  let prev_finish = if s.stamp_epoch = t.epoch then s.last_finish else 0.0 in
  let start = Float.max prev_finish t.v in
  let finish = start +. (size_bits /. s.rate) in
  s.last_finish <- finish;
  s.stamp_epoch <- t.epoch;
  if not s.in_fluid then begin
    s.in_fluid <- true;
    t.active_rate_sum <- t.active_rate_sum +. s.rate;
    Prioq.Indexed_heap4.add t.departures ~key:session ~prio:finish
  end
  else Prioq.Indexed_heap4.update t.departures ~key:session ~prio:finish;
  Stamp_queue.push stamps ~start ~finish

let virtual_time t ~now =
  advance t ~now;
  t.v

let epoch t ~now =
  advance t ~now;
  t.epoch

let gps_backlogged t ~now ~session =
  advance t ~now;
  (Vec.get t.sessions session).in_fluid

let busy t ~now =
  advance t ~now;
  not (Prioq.Indexed_heap4.is_empty t.departures)
