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

   Every row is the calendar's events/second (pop + re-arm, plus cancel
   + re-arm for cancel-heavy) over the heap's, as same-run pairs, with
   the calendar's GC minor words per event. The cancel-heavy 64k-timer
   row is the headline, and [probe] measures that one row for the guard:
   the calendar is the simulator's set only while it beats the heap. *)

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
   [Simulator.cancel], so at most 2n + 2 slots are ever in use; the pool
   hands out low slot indices first, so every index stays under [slots].
   Every random draw is made before the clock starts and depends only on
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
  let slots = (2 * n) + 64 in
  let pool = Pool.create ~capacity:slots () in
  let es = E.create pool in
  let pending = Array.make n (-1) (* timer -> its armed slot *)
  and owner = Array.make slots 0 (* slot -> timer *)
  and clock = { now = 0.0 }
  and armed = ref 0
  and live = ref 0
  and compactions = ref 0 in
  let arm i =
    let s = Pool.alloc pool in
    Pool.fill pool s ~at:(clock.now +. Float.Array.get delays !armed) ~seq:!armed;
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
    clock.now <- Pool.time pool !s;
    Pool.free pool !s;
    decr live;
    if !fired < events then begin
      arm i;
      if cancels > 0 then begin
        (* retransmit-timer reset: [pending.(j)] is j's armed slot (i's
           included, just re-armed), so every cancel is effective *)
        let j = victims.(!fired) in
        Pool.cancel pool pending.(j);
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

let headline_dist = Cancel_heavy
let sizes ~quick = if quick then [ 256 ] else [ 1024; 16384; 65536 ]
let headline_n ~quick = List.fold_left max 0 (sizes ~quick)
let budget ~quick n = if quick then 4_000 else max 200_000 (4 * n)

(* One (dist, n) cell, the report's row and the guard's: calendar over
   heap hold rates as same-run pairs, and the calendar's last run for
   its allocation and structure counts (identical in every run). *)
let cell ~quick ~dist ~n =
  let events = budget ~quick n in
  let cal = ref None in
  let calendar_rate () =
    let r = hold calendar ~dist ~n ~events in
    cal := Some r;
    r.events_per_sec
  in
  let heap_rate () = (hold heap ~dist ~n ~events).events_per_sec in
  let pairs = Suite.pairs ~num:calendar_rate ~den:heap_rate () in
  (pairs, Option.get !cal)

let row_json (dist, n, pairs, cal) =
  Json.Obj
    [
      ("dist", Json.Str (dist_name dist));
      ("n", Json.Num (float_of_int n));
      ("calendar_over_heap", Json.Num (Suite.ratio pairs));
      ("minor_words_per_event", Json.Num cal.minor_words_per_event);
      ("fired", Json.Num (float_of_int cal.fired));
      ("compactions", Json.Num (float_of_int cal.compactions));
      ("resizes", Json.Num (float_of_int cal.resizes));
      ("events_per_sec", pairs);
    ]

let report ~quick =
  Printf.printf "%-14s %8s %9s %12s %8s %8s\n" "dist" "n" "cal/heap" "words/event"
    "compact" "resize";
  let rows =
    List.concat_map
      (fun dist ->
        List.map
          (fun n ->
            let pairs, cal = cell ~quick ~dist ~n in
            Printf.printf "%-14s %8d %8.2fx %12.3f %8d %8d\n%!" (dist_name dist) n
              (Suite.ratio pairs) cal.minor_words_per_event cal.compactions cal.resizes;
            (dist, n, pairs, cal))
          (sizes ~quick))
      all_dists
  in
  let headline =
    List.find_map
      (fun (dist, n, pairs, _) ->
        if dist = headline_dist && n = headline_n ~quick:false then
          Some
            (Json.Obj
               [
                 ("workload", Json.Str "cancel_heavy_n65536");
                 ("calendar_over_heap", Json.Num (Suite.ratio pairs));
               ])
        else None)
      rows
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-events-v4");
      ("bench", Json.Str "events");
      ("quick", Json.Bool quick);
      ("headline", Option.value headline ~default:Json.Null);
      ("rows", Json.Arr (List.map row_json rows));
    ]

(* The guard's fresh side: the cancel-heavy headline cell. *)
let probe ~quick =
  let pairs, _ = cell ~quick ~dist:headline_dist ~n:(headline_n ~quick) in
  Json.Obj [ ("calendar_over_heap", pairs) ]
