type t = {
  sim : Engine.Simulator.t;
  send : mark:int -> size_bits:float -> [ `Queued | `Dropped ];
  segment_bits : float;
  ack_delay : float;
  min_rto : float;
  max_rto : float;
  (* sender *)
  mutable next_seq : int;       (* next new segment index to transmit *)
  mutable highest_acked : int;
  mutable cwnd : float;         (* segments *)
  mutable ssthresh : float;
  mutable dupacks : int;
  mutable rto : float;
  mutable rto_timer : Engine.Simulator.event_id option;
  mutable recover : int;        (* NewReno: highest seq sent when loss was detected *)
  mutable in_recovery : bool;
  mutable retransmits : int;
  mutable timeouts : int;
  (* receiver *)
  mutable expected : int;       (* next in-order segment awaited *)
  out_of_order : (int, unit) Hashtbl.t;
  mutable delivered : int;
  (* Jacobson/Karn RTT estimation *)
  send_times : (int, float) Hashtbl.t; (* first-transmission time per segment *)
  mutable srtt : float;                (* < 0 until the first sample *)
  mutable rttvar : float;
}

let flight t = t.next_seq - 1 - t.highest_acked

let disarm_rto t =
  match t.rto_timer with
  | Some ev ->
    Engine.Simulator.cancel t.sim ev;
    t.rto_timer <- None
  | None -> ()

let rec arm_rto t =
  disarm_rto t;
  t.rto_timer <- Some (Engine.Simulator.schedule_after t.sim ~delay:t.rto (fun () -> on_timeout t))

and on_timeout t =
  t.rto_timer <- None;
  if flight t > 0 then begin
    t.timeouts <- t.timeouts + 1;
    t.ssthresh <- Float.max (float_of_int (flight t) /. 2.0) 2.0;
    t.cwnd <- 1.0;
    t.dupacks <- 0;
    t.recover <- t.next_seq - 1;
    t.in_recovery <- true;
    t.rto <- Float.min (2.0 *. t.rto) t.max_rto; (* exponential backoff, capped *)
    retransmit_first_unacked t;
    arm_rto t
  end

and retransmit_first_unacked t =
  t.retransmits <- t.retransmits + 1;
  (* Karn's algorithm: never sample RTT from a retransmitted segment *)
  Hashtbl.remove t.send_times (t.highest_acked + 1);
  ignore (t.send ~mark:(t.highest_acked + 1) ~size_bits:t.segment_bits)

let try_send t =
  let window = int_of_float t.cwnd in
  let sent_any = ref false in
  while flight t < window do
    Hashtbl.replace t.send_times t.next_seq (Engine.Simulator.now t.sim);
    ignore (t.send ~mark:t.next_seq ~size_bits:t.segment_bits);
    t.next_seq <- t.next_seq + 1;
    sent_any := true
  done;
  if !sent_any && t.rto_timer = None then arm_rto t

(* RFC 6298-style estimator: srtt/rttvar updated per non-retransmitted
   sample; RTO = srtt + 4*rttvar, floored at min_rto. *)
let sample_rtt t ~segment =
  match Hashtbl.find_opt t.send_times segment with
  | None -> ()
  | Some sent_at ->
    let sample = Engine.Simulator.now t.sim -. sent_at in
    if t.srtt < 0.0 then begin
      t.srtt <- sample;
      t.rttvar <- sample /. 2.0
    end
    else begin
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. sample));
      t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
    end;
    t.rto <- Float.min t.max_rto (Float.max t.min_rto (t.srtt +. (4.0 *. t.rttvar)))

let forget_sent_up_to t ack =
  for seg = max 1 (ack - 127) to ack do
    Hashtbl.remove t.send_times seg
  done

let on_ack t ack =
  if ack > t.highest_acked then begin
    let newly = float_of_int (ack - t.highest_acked) in
    sample_rtt t ~segment:ack;
    forget_sent_up_to t ack;
    t.highest_acked <- ack;
    t.dupacks <- 0;
    if t.in_recovery && ack < t.recover then
      (* NewReno partial ack: the cumulative ACK exposed the next hole;
         retransmit it now instead of waiting a full RTO per hole *)
      retransmit_first_unacked t
    else begin
      t.in_recovery <- false;
      if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. newly (* slow start *)
      else t.cwnd <- t.cwnd +. (newly /. t.cwnd)           (* congestion avoidance *)
    end;
    if flight t > 0 then arm_rto t else disarm_rto t;
    try_send t
  end
  else if flight t > 0 then begin
    t.dupacks <- t.dupacks + 1;
    (* early retransmit (RFC 5827): lower the dupack threshold when the
       flight is too small to ever produce three duplicates *)
    let dupthresh = max 1 (min 3 (flight t - 1)) in
    if t.dupacks = dupthresh && not t.in_recovery then begin
      (* fast retransmit + NewReno fast recovery (no window inflation) *)
      t.ssthresh <- Float.max (float_of_int (flight t) /. 2.0) 2.0;
      t.cwnd <- t.ssthresh;
      t.recover <- t.next_seq - 1;
      t.in_recovery <- true;
      retransmit_first_unacked t;
      arm_rto t
    end
  end

(* Receiver side: in-order delivery with cumulative ACKs; each delivery
   (in-order or not) triggers an ACK for the highest in-order prefix. *)
let receive t mark =
  if mark = t.expected then begin
    t.expected <- t.expected + 1;
    t.delivered <- t.delivered + 1;
    let continue = ref true in
    while !continue do
      if Hashtbl.mem t.out_of_order t.expected then begin
        Hashtbl.remove t.out_of_order t.expected;
        t.expected <- t.expected + 1;
        t.delivered <- t.delivered + 1
      end
      else continue := false
    done
  end
  else if mark > t.expected then Hashtbl.replace t.out_of_order mark ();
  let ack = t.expected - 1 in
  ignore
    (Engine.Simulator.schedule_after t.sim ~delay:t.ack_delay (fun () -> on_ack t ack))

let on_segment_delivered t ~mark = receive t mark

let create ~sim ~send ?(segment_bits = 65536.0) ?(initial_ssthresh = 64.0)
    ?(ack_delay = 0.005) ?(min_rto = 0.2) ?(max_rto = 1.0) ?(start = 0.0) () =
  let t =
    {
      sim;
      send;
      segment_bits;
      ack_delay;
      min_rto;
      max_rto;
      next_seq = 1;
      highest_acked = 0;
      cwnd = 1.0;
      ssthresh = initial_ssthresh;
      dupacks = 0;
      rto = min_rto;
      rto_timer = None;
      recover = 0;
      in_recovery = false;
      retransmits = 0;
      timeouts = 0;
      expected = 1;
      out_of_order = Hashtbl.create 64;
      delivered = 0;
      send_times = Hashtbl.create 256;
      srtt = -1.0;
      rttvar = 0.0;
    }
  in
  ignore (Engine.Simulator.schedule sim ~at:start (fun () -> try_send t));
  t

let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let delivered_segments t = t.delivered
let retransmits t = t.retransmits
let timeouts t = t.timeouts
let segment_bits t = t.segment_bits
