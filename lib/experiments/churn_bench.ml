(* Session-churn benchmark (bench id "churn") and the virtual-time soak
   harness.

   The churn grid answers the lifecycle tentpole's scaling question: with
   10^5-10^6 sessions open on one policy, how many open/close events per
   second does the arena/freelist path sustain while the scheduler keeps
   serving? Each cell ramps N sessions up, then runs a steady churn loop
   — pick a random session, make it backlogged, close it `Drop (heap
   removal + slot free), open a replacement (slot reuse + fresh stamps) —
   on both the fixed-point engine (the headline) and the float reference.

   The soak harness quantifies eq. 27-29 drift: a continuously backlogged
   session whose per-service virtual-time increment is non-dyadic
   (rate 0.3, so L/r has no finite binary representation). The float
   engine folds [n] rounded additions into V; the fixed engine adds exact
   integer ticks. Drift is measured against the exact value of
   [n * step] — for the float engine via an FMA-compensated product (the
   accumulated-sum error, isolated from the one rounding in the
   reference), for the fixed engine as an integer difference that is
   provably zero. *)

module Json = Bench_kit.Json
module Intf = Sched.Sched_intf

(* -- churn grid ---------------------------------------------------------- *)

type row = {
  engine : string;
  sessions : int;
  ramp_opens_per_sec : float;
  churn_events_per_sec : float;
  minor_words_per_event : float;
  live_after : int;
}

let engines = [ Hpfq.Disciplines.wf2q_plus_fixed; Hpfq.Disciplines.wf2q_plus ]
let headline_engine = Hpfq.Disciplines.wf2q_plus_fixed.Intf.kind
let floor = 1.0e5
let session_grid ~quick = if quick then [ 10_000 ] else [ 100_000; 1_000_000 ]
let headline_sessions ~quick = List.fold_left max 0 (session_grid ~quick)
let churn_iters ~quick = if quick then 20_000 else 200_000

(* A fresh policy with [sessions] open (the ramp timed), and one churn
   step over them: make a random session backlogged, close it `Drop (heap
   removal + retract), open its replacement (slot reuse + fresh stamps).
   Two events per step. *)
let open_sessions ~factory ~sessions =
  let policy, _ = Hpfq.Schedulers.make ~rate:1.0 factory in
  let r = 1.0 /. float_of_int sessions in
  let handles = Array.make sessions (Sched.Session_handle.of_int_unsafe 0) in
  let t0 = Unix.gettimeofday () in
  for i = 0 to sessions - 1 do
    handles.(i) <- policy.Intf.open_session ~rate:r
  done;
  let ramp_wall = Unix.gettimeofday () -. t0 in
  let rng = Engine.Rng.create 0x5EEDL in
  let now = ref 0.0 in
  let step () =
    let idx = Engine.Rng.int rng sessions in
    let h = handles.(idx) in
    let s = policy.Intf.session_of_handle h in
    policy.Intf.backlog ~now:!now ~session:s ~head_bits:1.0;
    policy.Intf.close_session ~now:!now ~policy:`Drop h;
    handles.(idx) <- policy.Intf.open_session ~rate:r;
    now := !now +. 1e-6
  in
  (policy, ramp_wall, step)

(* The churn probe's reference at the same N: a hold model on the 4-ary
   heap every scheduler runs, [n] keys, each step one drop-min and one
   add a random increment later — the heap work a churn step pays for,
   with none of the session machinery. Two operations per step. *)
let heap_hold ~n =
  let module H = Prioq.Indexed_heap4 in
  let h = H.create n in
  let rng = Engine.Rng.create 0x5EEDL in
  for k = 0 to n - 1 do
    H.add h ~key:k ~prio:(Engine.Rng.float rng 1.0)
  done;
  fun () ->
    let k = H.min_key_unsafe h and p = H.min_prio_unsafe h in
    H.drop_min h;
    H.add h ~key:k ~prio:(p +. Engine.Rng.float rng 1.0)

(* events (two per step) per second over [iters] steps, and the minor
   words each event allocated *)
let time_steps ~iters step =
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    step ()
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let events = float_of_int (2 * iters) in
  (events /. wall, (Gc.minor_words () -. m0) /. events)

let measure ~factory ~sessions ~iters () =
  let policy, ramp_wall, step = open_sessions ~factory ~sessions in
  let churn_events_per_sec, minor_words_per_event = time_steps ~iters step in
  {
    engine = factory.Intf.kind;
    sessions;
    ramp_opens_per_sec = float_of_int sessions /. ramp_wall;
    churn_events_per_sec;
    minor_words_per_event;
    live_after = policy.Intf.live_sessions ();
  }

(* -- JSON report --------------------------------------------------------- *)

let row_json r =
  Json.Obj
    [
      ("engine", Json.Str r.engine);
      ("sessions", Json.Num (float_of_int r.sessions));
      ("ramp_opens_per_sec", Json.Num r.ramp_opens_per_sec);
      ("churn_events_per_sec", Json.Num r.churn_events_per_sec);
      ("minor_words_per_event", Json.Num r.minor_words_per_event);
      ("live_after", Json.Num (float_of_int r.live_after));
    ]

let json_of_run ~quick rows =
  let hs = headline_sessions ~quick in
  let headline =
    match
      List.find_opt (fun r -> r.engine = headline_engine && r.sessions = hs) rows
    with
    | Some r ->
      Json.Obj
        [
          ("workload", Json.Str "idle-open/backlog/close-drop/reopen churn");
          ("engine", Json.Str r.engine);
          ("sessions", Json.Num (float_of_int r.sessions));
          ("churn_events_per_sec", Json.Num r.churn_events_per_sec);
          ("floor_events_per_sec", Json.Num floor);
        ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-churn-v1");
      ("bench", Json.Str "churn");
      ("quick", Json.Bool quick);
      ("headline", headline);
      ("rows", Json.Arr (List.map row_json rows));
    ]

let report ~quick =
  let iters = churn_iters ~quick in
  let rows =
    List.concat_map
      (fun sessions ->
        List.map (fun factory -> measure ~factory ~sessions ~iters ()) engines)
      (session_grid ~quick)
  in
  Printf.printf "%-10s %10s %16s %18s %12s %10s\n" "engine" "sessions" "ramp opens/s"
    "churn events/s" "words/event" "live";
  List.iter
    (fun r ->
      Printf.printf "%-10s %10d %16.0f %18.0f %12.3f %10d\n" r.engine r.sessions
        r.ramp_opens_per_sec r.churn_events_per_sec r.minor_words_per_event
        r.live_after)
    rows;
  List.iter
    (fun r ->
      if r.live_after <> r.sessions then
        failwith
          (Printf.sprintf "Churn_bench: %s at %d sessions ended with %d live"
             r.engine r.sessions r.live_after))
    rows;
  json_of_run ~quick rows

(* The guard's fresh side: the fixed-point headline cell against the
   heap hold at the same N, in pairs over one policy and one heap. *)
let probe ~quick =
  let sessions = if quick then 1_000 else headline_sessions ~quick:false in
  let iters = if quick then 5_000 else churn_iters ~quick:false in
  let _, _, step = open_sessions ~factory:Hpfq.Disciplines.wf2q_plus_fixed ~sessions in
  let heap_step = heap_hold ~n:sessions in
  let churn = ref [] in
  let num () =
    let rate = fst (time_steps ~iters step) in
    churn := rate :: !churn;
    rate
  in
  let ab = Bench_kit.Suite.pairs ~num ~den:(fun () -> fst (time_steps ~iters heap_step)) () in
  Json.Obj
    [
      ("churn_over_heap", ab);
      ( "headline",
        Json.Obj [ ("churn_events_per_sec", Json.Num (Bench_kit.Suite.median !churn)) ] );
    ]

(* -- virtual-time soak ---------------------------------------------------- *)

type soak_result = {
  s_engine : string;
  s_packets : int;
  s_v_end : float;  (** virtual time after the run *)
  s_drift : float;  (** signed error of V vs exact [n * step] *)
  s_exact : bool;  (** drift known exactly zero (integer-domain check) *)
}

let soak_rate = 0.3 (* L/r = 10/3: no finite binary representation *)

(* Both engines are driven in reference time: the caller's clock mirrors
   the engine's post-dated [v_time] via the same float operations the
   engine performs, so the eq. 27 linear term contributes exactly zero
   and V advances purely by the per-service increment — isolating the
   accumulation behaviour the soak is after. *)
let soak_float ~packets =
  let p = Hpfq.Disciplines.wf2q_plus.make ~rate:soak_rate in
  let h = p.Intf.open_session ~rate:soak_rate in
  let s = p.Intf.session_of_handle h in
  p.Intf.backlog ~now:0.0 ~session:s ~head_bits:1.0;
  let step = 1.0 /. soak_rate in
  let now = ref 0.0 in
  for _ = 1 to packets do
    (match p.Intf.select ~now:!now with
    | Some _ -> ()
    | None -> failwith "soak: select returned None on a backlogged engine");
    now := !now +. step;
    p.Intf.requeue ~now:!now ~session:s ~head_bits:1.0
  done;
  let v_end = p.Intf.virtual_time ~now:!now in
  (* exact n*step via an FMA-compensated product: [prod + err] is the
     double-double value of the real product, so [(v - prod) - err] is
     the accumulated-sum error alone *)
  let n = float_of_int packets in
  let prod = n *. step in
  let err = Float.fma n step (-.prod) in
  { s_engine = "WF2Q+"; s_packets = packets; s_v_end = v_end;
    s_drift = (v_end -. prod) -. err; s_exact = false }

let soak_fixed ~packets =
  let eng = Hpfq.Wf2q_plus_fixed.create ~rate:soak_rate () in
  let p = Hpfq.Wf2q_plus_fixed.policy eng in
  let shift = Hpfq.Wf2q_plus_fixed.shift eng in
  let h = p.Intf.open_session ~rate:soak_rate in
  let s = p.Intf.session_of_handle h in
  p.Intf.backlog ~now:0.0 ~session:s ~head_bits:1.0;
  let service_ticks = Sched.Fixed.ticks_per_bit ~shift ~rate:soak_rate in
  let step = Sched.Fixed.to_float ~shift service_ticks in
  let now = ref 0.0 in
  for _ = 1 to packets do
    (match p.Intf.select ~now:!now with
    | Some _ -> ()
    | None -> failwith "soak: select returned None on a backlogged engine");
    now := !now +. step;
    p.Intf.requeue ~now:!now ~session:s ~head_bits:1.0
  done;
  (* integer-domain drift: provably-exact check, no float round-trip *)
  let drift_ticks = Hpfq.Wf2q_plus_fixed.v_ticks eng - (packets * service_ticks) in
  {
    s_engine = "WF2Q+fx";
    s_packets = packets;
    s_v_end = p.Intf.virtual_time ~now:!now;
    s_drift = Sched.Fixed.to_float ~shift drift_ticks;
    s_exact = drift_ticks = 0;
  }

let soak ?(packets = 10_000_000) () = [ soak_fixed ~packets; soak_float ~packets ]
