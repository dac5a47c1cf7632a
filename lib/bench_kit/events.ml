(* Event-set churn benchmark (bench id "events").

   The paper's evaluation runs on a NETSIM-derived discrete event
   simulator under timer-heavy workloads — TCP retransmit-timer churn,
   on/off sources — so the pending-event set is the simulator's hottest
   structure after the scheduler itself. This suite measures the
   simulator's calendar queue on a classic "hold model": [n]
   self-perpetuating timers, each fire rescheduling itself
   with an increment drawn from one of four distributions:

   - uniform:       U(0, 2T) — the textbook steady-state hold model;
   - bursty:        90% short U(0, 0.2T), 10% long (1..19)T — clumped
                    arrivals, uneven bucket occupancy;
   - cancel-heavy:  uniform increments, but every fire also cancels and
                    re-arms one random other timer — TCP retransmit-timer
                    reset churn (one effective cancel per fire);
   - wide-horizon:  99% U(0, 2T), 1% up to 2000T — a heavy far-future
                    tail, the calendar queue's known adversary.

   Every run reports events/second through the full simulator loop
   (schedule + fire, plus cancel + re-arm for cancel-heavy) and GC minor
   words per event; timer actions are pre-allocated so the loop itself
   allocates nothing and the words/event column is the event set's own.
   Results go to BENCH_events.json (same machine-readable role as
   BENCH_hotpath.json) with a cancel-heavy 64k-timer headline, which
   [probe] re-measures for the guard. *)

module Sim = Engine.Simulator

type dist = Uniform | Bursty | Cancel_heavy | Wide_horizon

let dist_name = function
  | Uniform -> "uniform"
  | Bursty -> "bursty"
  | Cancel_heavy -> "cancel_heavy"
  | Wide_horizon -> "wide_horizon"

let all_dists = [ Uniform; Bursty; Cancel_heavy; Wide_horizon ]

type row = {
  dist : dist;
  n : int; (* steady-state pending timers *)
  events_per_sec : float;
  minor_words_per_event : float;
  fired : int;
  cancelled : int;
  compactions : int;
  resizes : int;
}

(* One churn run: prime [n] timers, then let each fire re-arm itself until
   the fire budget is spent; the final generation drains un-rearmed.
   Deterministic per (dist, n): the PRNG seed is keyed by both. *)
let run_churn ~dist ~n ~events =
  let sim = Sim.create () in
  let rng = Random.State.make [| 0xCA1E17; Hashtbl.hash (dist_name dist); n |] in
  let mean = 1.0 in
  let draw () =
    match dist with
    | Uniform | Cancel_heavy -> Random.State.float rng (2.0 *. mean)
    | Bursty ->
      if Random.State.float rng 1.0 < 0.9 then Random.State.float rng (0.2 *. mean)
      else mean *. (1.0 +. Random.State.float rng 18.0)
    | Wide_horizon ->
      if Random.State.float rng 1.0 < 0.99 then Random.State.float rng (2.0 *. mean)
      else mean *. Random.State.float rng 2000.0
  in
  let ids = Array.make n Sim.stale_id in
  let have_id = Array.make n false in
  let actions = Array.make n ignore in
  let remaining = ref events in
  let cancelled = ref 0 in
  let arm i =
    ids.(i) <- Sim.schedule_after sim ~delay:(draw ()) actions.(i);
    have_id.(i) <- true
  in
  for i = 0 to n - 1 do
    actions.(i) <-
      (fun () ->
        if !remaining > 0 then begin
          decr remaining;
          arm i;
          match dist with
          | Cancel_heavy ->
            (* retransmit-timer reset: kill one random pending timer and
               re-arm it. [ids.(j)] always names j's latest armed event,
               which is pending (even when j = i: just re-armed above), so
               every cancel is effective. *)
            let j = Random.State.int rng n in
            if have_id.(j) then begin
              Sim.cancel sim ids.(j);
              incr cancelled;
              arm j
            end
          | Uniform | Bursty | Wide_horizon -> ()
        end
        else have_id.(i) <- false)
  done;
  for i = 0 to n - 1 do
    arm i
  done;
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Sim.run sim;
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. m0 in
  let fired = Sim.events_processed sim in
  let st = Sim.stats sim in
  {
    dist;
    n;
    events_per_sec = float_of_int fired /. wall;
    minor_words_per_event = minor /. float_of_int (max 1 fired);
    fired;
    cancelled = !cancelled;
    compactions = st.Sim.compactions;
    resizes = st.Sim.resizes;
  }

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
      ("events_per_sec", Json.Num r.events_per_sec);
      ("minor_words_per_event", Json.Num r.minor_words_per_event);
      ("fired", Json.Num (float_of_int r.fired));
      ("cancelled", Json.Num (float_of_int r.cancelled));
      ("compactions", Json.Num (float_of_int r.compactions));
      ("resizes", Json.Num (float_of_int r.resizes));
    ]

let json_of_run ~quick rows =
  let headline =
    match List.find_opt (fun r -> r.dist = headline_dist && r.n = headline_n) rows with
    | Some c ->
      Json.Obj
        [
          ("workload", Json.Str "cancel_heavy_n65536");
          ("calendar_events_per_sec", Json.Num c.events_per_sec);
        ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-events-v2");
      ("bench", Json.Str "events");
      ("quick", Json.Bool quick);
      ("headline", headline);
      ("rows", Json.Arr (List.map row_json rows));
    ]

let report ~quick =
  (* dist × n cells are independent (each builds its own simulator with a
     cell-keyed PRNG); fanning them out carries the usual contention
     caveat — parallel numbers are only comparable at the same -j, guards
     measure sequentially *)
  let pool = Parallel.Pool.create () in
  let grid =
    List.concat_map
      (fun dist -> List.map (fun n -> (dist, n, budget ~quick n)) (sizes ~quick))
      all_dists
  in
  let rows =
    Parallel.Pool.map_list pool
      ~f:(fun (dist, n, events) -> run_churn ~dist ~n ~events)
      grid
  in
  Printf.printf "%-14s %8s %16s %12s %8s %8s\n" "dist" "n" "events/sec"
    "words/event" "compact" "resize";
  List.iter
    (fun r ->
      Printf.printf "%-14s %8d %16.0f %12.3f %8d %8d\n" (dist_name r.dist) r.n
        r.events_per_sec r.minor_words_per_event r.compactions r.resizes)
    rows;
  json_of_run ~quick rows

(* The guard's fresh side: the cancel-heavy headline. *)
let probe ~quick =
  let n = if quick then 256 else headline_n in
  let cal = run_churn ~dist:headline_dist ~n ~events:(budget ~quick n) in
  Json.Obj
    [ ("headline", Json.Obj [ ("calendar_events_per_sec", Json.Num cal.events_per_sec) ]) ]
