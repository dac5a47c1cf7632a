(* Event-set churn benchmark (bench id "events").

   The paper's evaluation runs on a NETSIM-derived discrete event
   simulator under timer-heavy workloads — TCP retransmit-timer churn,
   on/off sources — so the pending-event set is the simulator's hottest
   structure after the scheduler itself. This suite drives both
   [Engine.Event_set.S] implementations — the simulator's calendar queue
   and the reference slot heap — over an [Event_pool], the way the
   simulator drives them, on a classic "hold model": [n]
   self-perpetuating timers, each fire rescheduling itself with an
   increment drawn from one of four distributions:

   - uniform:       U(0, 2T) — the textbook steady-state hold model;
   - bursty:        90% short U(0, 0.2T), 10% long (1..19)T — clumped
                    arrivals, uneven bucket occupancy;
   - cancel-heavy:  uniform increments, but every fire also cancels and
                    re-arms one random other timer — TCP retransmit-timer
                    reset churn (one effective cancel per fire);
   - wide-horizon:  99% U(0, 2T), 1% up to 2000T — a heavy far-future
                    tail, the calendar queue's known adversary.

   Every row reports both sets' events/second (pop + re-arm, plus cancel
   + re-arm for cancel-heavy) and the calendar's GC minor words per
   event. The cancel-heavy 64k-timer calendar/heap ratio is the headline,
   which [probe] re-measures in pairs for the guard: the calendar is the
   simulator's set only while it beats the heap. *)

module Pool = Engine.Event_pool

type dist = Uniform | Bursty | Cancel_heavy | Wide_horizon

let dist_name = function
  | Uniform -> "uniform"
  | Bursty -> "bursty"
  | Cancel_heavy -> "cancel_heavy"
  | Wide_horizon -> "wide_horizon"

let all_dists = [ Uniform; Bursty; Cancel_heavy; Wide_horizon ]

type set = (module Engine.Event_set.S)

let calendar : set = (module Engine.Calendar_queue)
let heap : set = (module Engine.Slot_heap)

type run = {
  events_per_sec : float;
  minor_words_per_event : float;
  fired : int;
  compactions : int;
  resizes : int;
}

(* The simulation clock: a float record field, stored unboxed, so the
   timed loop below allocates nothing outside the set. *)
type clock = { mutable now : float }

(* One hold-model run on one set: prime [n] timers, then let each fire
   re-arm itself until the fire budget is spent; the final generation
   drains un-rearmed. Cancellation is a pool state flip, and the set is
   compacted once cancelled entries outnumber live ones, as in
   [Simulator.cancel], so at most 2n + 2 slots are ever in use. Every
   random draw is made before the clock starts and depends only on
   (dist, n), so both sets see the same timers and the timed loop is the
   set's work plus array reads. *)
let hold ((module E) : set) ~dist ~n ~events =
  let rng = Random.State.make [| 0xCA1E17; Hashtbl.hash (dist_name dist); n |] in
  let draw _ =
    match dist with
    | Uniform | Cancel_heavy -> Random.State.float rng 2.0
    | Bursty ->
      if Random.State.float rng 1.0 < 0.9 then Random.State.float rng 0.2
      else 1.0 +. Random.State.float rng 18.0
    | Wide_horizon ->
      if Random.State.float rng 1.0 < 0.99 then Random.State.float rng 2.0
      else Random.State.float rng 2000.0
  in
  let cancels = if dist = Cancel_heavy then events else 0 in
  let delays = Float.Array.init (n + events + cancels) draw in
  let victims = Array.init cancels (fun _ -> Random.State.int rng n) in
  let pool = Pool.create ~capacity:((2 * n) + 64) () in
  let es = E.create pool in
  let pending = Array.make n (-1) (* timer -> its armed slot *)
  and owner = Array.make (Pool.capacity pool) 0 (* slot -> timer *)
  and clock = { now = 0.0 }
  and armed = ref 0
  and live = ref 0
  and compactions = ref 0 in
  let arm i =
    let s = Pool.alloc pool in
    pool.Pool.times.(s) <- clock.now +. Float.Array.get delays !armed;
    pool.Pool.seqs.(s) <- !armed;
    Bytes.set pool.Pool.state s Pool.st_live;
    owner.(s) <- i;
    pending.(i) <- s;
    incr armed;
    incr live;
    E.add es s
  in
  for i = 0 to n - 1 do
    arm i
  done;
  let fired = ref 0 in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let s = ref (E.pop_live es) in
  while !s >= 0 do
    let i = owner.(!s) in
    clock.now <- pool.Pool.times.(!s);
    Pool.free pool !s;
    decr live;
    if !fired < events then begin
      arm i;
      if cancels > 0 then begin
        (* retransmit-timer reset: [pending.(j)] is j's armed slot (i's
           included, just re-armed), so every cancel is effective *)
        let j = victims.(!fired) in
        Bytes.set pool.Pool.state pending.(j) Pool.st_cancelled;
        decr live;
        if E.size es >= 64 && E.size es - !live > !live then begin
          E.compact es;
          incr compactions
        end;
        arm j
      end
    end;
    incr fired;
    s := E.pop_live es
  done;
  let wall = Unix.gettimeofday () -. t0 in
  {
    events_per_sec = float_of_int !fired /. wall;
    minor_words_per_event = (Gc.minor_words () -. m0) /. float_of_int (max 1 !fired);
    fired = !fired;
    compactions = !compactions;
    resizes = E.resizes es;
  }

type row = { dist : dist; n : int; cal : run; heap : run }

let headline_dist = Cancel_heavy
let headline_n = 65536

let sizes ~quick = if quick then [ 256 ] else [ 1024; 16384; 65536 ]
let budget ~quick n = if quick then 4_000 else max 200_000 (4 * n)

(* -- JSON report --------------------------------------------------------- *)

let row_json r =
  Json.Obj
    [
      ("dist", Json.Str (dist_name r.dist));
      ("n", Json.Num (float_of_int r.n));
      ("calendar_events_per_sec", Json.Num r.cal.events_per_sec);
      ("heap_events_per_sec", Json.Num r.heap.events_per_sec);
      ("calendar_over_heap", Json.Num (r.cal.events_per_sec /. r.heap.events_per_sec));
      ("minor_words_per_event", Json.Num r.cal.minor_words_per_event);
      ("fired", Json.Num (float_of_int r.cal.fired));
      ("compactions", Json.Num (float_of_int r.cal.compactions));
      ("resizes", Json.Num (float_of_int r.cal.resizes));
    ]

(* Cells run one after another, each its two sets back to back, so every
   row's ratio is a same-run one. *)
let report ~quick =
  let rows =
    List.concat_map
      (fun dist ->
        List.map
          (fun n ->
            let events = budget ~quick n in
            let cal = hold calendar ~dist ~n ~events in
            { dist; n; cal; heap = hold heap ~dist ~n ~events })
          (sizes ~quick))
      all_dists
  in
  Printf.printf "%-14s %8s %14s %14s %8s %12s %8s %8s\n" "dist" "n" "calendar ev/s"
    "heap ev/s" "cal/heap" "words/event" "compact" "resize";
  List.iter
    (fun r ->
      Printf.printf "%-14s %8d %14.0f %14.0f %7.2fx %12.3f %8d %8d\n" (dist_name r.dist)
        r.n r.cal.events_per_sec r.heap.events_per_sec
        (r.cal.events_per_sec /. r.heap.events_per_sec)
        r.cal.minor_words_per_event r.cal.compactions r.cal.resizes)
    rows;
  let headline =
    match List.find_opt (fun r -> r.dist = headline_dist && r.n = headline_n) rows with
    | Some r ->
      Json.Obj
        [
          ("workload", Json.Str "cancel_heavy_n65536");
          ("calendar_over_heap", Json.Num (r.cal.events_per_sec /. r.heap.events_per_sec));
        ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-events-v3");
      ("bench", Json.Str "events");
      ("quick", Json.Bool quick);
      ("headline", headline);
      ("rows", Json.Arr (List.map row_json rows));
    ]

(* The guard's fresh side: the cancel-heavy headline, calendar over heap
   in pairs. *)
let probe ~quick =
  let n = if quick then 256 else headline_n in
  let rate set () = (hold set ~dist:headline_dist ~n ~events:(budget ~quick n)).events_per_sec in
  Json.Obj [ ("calendar_over_heap", Suite.pairs ~num:(rate calendar) ~den:(rate heap) ()) ]
