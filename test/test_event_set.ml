(* The simulator's pending-event set: the calendar queue, checked against
   the reference slot heap.

   Below the simulator, the two [Event_set.S] implementations must give
   the same answer to every peek and pop under any interleaving of add,
   cancel (a pool state flip, as the simulator does it), peek_live,
   pop_live and compact. The lockstep qcheck property drives both over
   one [Event_pool] through the same random op sequence and compares
   every answer. The unit tests then pin, through the Simulator API, the
   run~until horizon semantics, cancelled-top reclamation, compaction
   triggering, stream installation and the calendar's resize /
   far-future behaviour. *)

module Sim = Engine.Simulator
module Pool = Engine.Event_pool
module Cal = Engine.Calendar_queue
module Heap = Engine.Slot_heap

(* ---- Event_set.S lockstep: calendar queue vs slot heap ---- *)

type op =
  | Add of float (* delay past the last popped time *)
  | Cancel of int (* index into the events added so far *)
  | Peek
  | Pop
  | Compact

let op_to_string = function
  | Add d -> Printf.sprintf "add +%h" d
  | Cancel k -> Printf.sprintf "cancel#%d" k
  | Peek -> "peek"
  | Pop -> "pop"
  | Compact -> "compact"

let print_ops ops = String.concat "; " (List.map op_to_string ops)

(* Every event gets one slot in each structure, both keyed by the same
   (time, seq), so the two answers to a peek or pop must name the same
   event. A popped slot is freed by the caller, as the simulator does;
   cancelled slots are freed by the structure that reclaims them. Returns
   the first disagreement, if any. *)
let lockstep_mismatch ops =
  let pool = Pool.create () in
  let cal = Cal.create pool and heap = Heap.create pool in
  (* slot -> event index, per structure; events are numbered by their
     Add, which is also their seq *)
  let owner = Hashtbl.create 64 in
  let n = List.length ops in
  let slots = Array.make n (-1, -1) (* event -> (cal slot, heap slot) *)
  and pending = Array.make n false (* event -> neither popped nor cancelled *)
  and events = ref 0 and live = ref 0 and floor = ref 0.0 in
  let alloc ~at ~seq ~side =
    let slot = Pool.alloc pool in
    Pool.fill pool slot ~at ~seq;
    Hashtbl.replace owner (side, slot) seq;
    slot
  in
  let name side slot = if slot < 0 then -1 else Hashtbl.find owner (side, slot) in
  let answer what i c h =
    let ec = name `Cal c and eh = name `Heap h in
    if ec = eh then None
    else Some (Printf.sprintf "op %d %s: calendar event %d, heap event %d" i what ec eh)
  in
  let step i op =
    match op with
    | Add d ->
      let e = !events and at = !floor +. d in
      let c = alloc ~at ~seq:e ~side:`Cal and h = alloc ~at ~seq:e ~side:`Heap in
      slots.(e) <- (c, h);
      pending.(e) <- true;
      incr events;
      incr live;
      Cal.add cal c;
      Heap.add heap h;
      None
    | Cancel k ->
      (if !events > 0 then
         let e = k mod !events in
         if pending.(e) then begin
           let c, h = slots.(e) in
           Pool.cancel pool c;
           Pool.cancel pool h;
           pending.(e) <- false;
           decr live
         end);
      None
    | Peek -> answer "peek_live" i (Cal.peek_live cal) (Heap.peek_live heap)
    | Pop ->
      let c = Cal.pop_live cal and h = Heap.pop_live heap in
      let r = answer "pop_live" i c h in
      if r = None && c >= 0 then begin
        pending.(name `Cal c) <- false;
        decr live;
        floor := Pool.time pool c;
        Pool.free pool c;
        Pool.free pool h
      end;
      r
    | Compact ->
      Cal.compact cal;
      Heap.compact heap;
      if Cal.size cal = !live && Heap.size heap = !live then None
      else
        Some
          (Printf.sprintf "op %d compact: calendar holds %d, heap %d, live %d" i
             (Cal.size cal) (Heap.size heap) !live)
  in
  let rec go i = function
    | [] ->
      (* drain: the remaining pops must agree too *)
      if !live = 0 then None else (match step i Pop with None -> go (i + 1) [] | r -> r)
    | op :: rest -> ( match step i op with None -> go (i + 1) rest | r -> r)
  in
  go 0 ops

(* Exact ties (delay 0, or equal multiples of 0.25) exercise the seq
   tie-break; the far tail drives the calendar's resize and direct-search
   paths. *)
let gen_delay =
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.map (fun u -> 2.0 *. u) (QCheck.Gen.float_bound_inclusive 1.0));
      (2, QCheck.Gen.map (fun i -> 0.25 *. float_of_int i) (QCheck.Gen.int_bound 8));
      (1, QCheck.Gen.return 0.0);
      ( 1,
        QCheck.Gen.map
          (fun u -> 1000.0 *. u)
          (QCheck.Gen.float_bound_inclusive 1.0) );
    ]

let gen_op ~cancel_weight =
  QCheck.Gen.frequency
    [
      (6, QCheck.Gen.map (fun d -> Add d) gen_delay);
      (cancel_weight, QCheck.Gen.map (fun k -> Cancel k) QCheck.Gen.nat);
      (1, QCheck.Gen.return Peek);
      (3, QCheck.Gen.return Pop);
      (1, QCheck.Gen.return Compact);
    ]

let gen_ops ~cancel_weight ~max_len =
  QCheck.Gen.list_size
    (QCheck.Gen.int_range 0 max_len)
    (gen_op ~cancel_weight)

let lockstep name ~count ~cancel_weight ~max_len =
  QCheck.Test.make ~name ~count
    (QCheck.make (gen_ops ~cancel_weight ~max_len) ~print:print_ops ~shrink:QCheck.Shrink.list)
    (fun ops ->
      match lockstep_mismatch ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let prop_lockstep =
  lockstep "heap and calendar replay identically" ~count:300 ~cancel_weight:2
    ~max_len:120

(* heavier cancel mix over longer sequences: drives compaction and the
   calendar's cancelled-head reclamation through the same lockstep check *)
let prop_lockstep_churn =
  lockstep "lockstep under cancel churn" ~count:80 ~cancel_weight:8 ~max_len:400

(* The same lockstep over more than three pages of pending events per
   structure (the pool holds both structures' slots, so it appends pages
   while both hold events): a fixed seed, adds with random cancels until
   [3 * page_size + 512] of each are pending, then pops, cancels and
   adds interleaved, then the full drain [lockstep_mismatch] ends with. *)
let test_lockstep_pages () =
  let rng = Random.State.make [| 0xa9e5; 3 |] in
  let delay () =
    if Random.State.int rng 8 = 0 then 0.25 *. float_of_int (Random.State.int rng 8)
    else Random.State.float rng 50.0
  in
  let target = (3 * Pool.page_size) + 512 in
  (* [live] is a lower bound: a cancel kills at most one pending event *)
  let rec grow acc live =
    if live >= target then List.rev acc
    else if Random.State.int rng 10 = 0 then
      grow (Cancel (Random.State.bits rng) :: acc) (live - 1)
    else grow (Add (delay ()) :: acc) (live + 1)
  in
  let mixed =
    List.init 20_000 (fun _ ->
        match Random.State.int rng 10 with
        | 0 | 1 -> Cancel (Random.State.bits rng)
        | 2 | 3 | 4 -> Add (delay ())
        | 5 -> Peek
        | 6 when Random.State.int rng 50 = 0 -> Compact
        | _ -> Pop)
  in
  match lockstep_mismatch (grow [] 0 @ mixed) with
  | None -> ()
  | Some msg -> Alcotest.fail msg

(* ---- Simulator unit tests ---- *)

(* Each runs once, on the simulator's calendar queue. *)
let case name f = Alcotest.test_case (name ^ " (calendar)") `Quick f

(* run ~until boundary: an event exactly at the horizon fires, the next
   representable instant after it does not, and the clock lands on the
   horizon even when nothing fires. *)
let test_until_boundary () =
  let sim = Sim.create () in
  let fired = ref [] in
  let tag t () = fired := t :: !fired in
  ignore (Sim.schedule sim ~at:1.0 (tag "early"));
  ignore (Sim.schedule sim ~at:5.0 (tag "horizon"));
  ignore (Sim.schedule sim ~at:(Float.succ 5.0) (tag "after"));
  Sim.run ~until:5.0 sim;
  Alcotest.(check (list string))
    "events at or before the horizon fire" [ "early"; "horizon" ]
    (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock = horizon" 5.0 (Sim.now sim);
  Alcotest.(check int) "strictly-later event still pending" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list string))
    "drain fires the rest"
    [ "early"; "horizon"; "after" ]
    (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock at last event" (Float.succ 5.0)
    (Sim.now sim)

let test_until_empty () =
  let sim = Sim.create () in
  Sim.run ~until:3.0 sim;
  Alcotest.(check (float 0.0)) "clock advances with no events" 3.0 (Sim.now sim)

(* a cancelled earliest event must be skipped and its structure entry
   reclaimed by the peek, not merely ignored *)
let test_cancelled_top_reclaimed () =
  let sim = Sim.create () in
  let count = ref 0 in
  let first = Sim.schedule sim ~at:1.0 (fun () -> incr count) in
  for i = 2 to 10 do
    ignore (Sim.schedule sim ~at:(float_of_int i) (fun () -> incr count))
  done;
  Sim.cancel sim first;
  let st = Sim.stats sim in
  Alcotest.(check int) "cancelled entry still in structure" 1
    st.Sim.cancelled_in_set;
  Sim.run ~until:1.5 sim;
  Alcotest.(check int) "nothing fired before 2.0" 0 !count;
  Alcotest.(check (float 0.0)) "clock = horizon" 1.5 (Sim.now sim);
  let st = Sim.stats sim in
  Alcotest.(check int) "peek reclaimed the cancelled top" 0
    st.Sim.cancelled_in_set;
  Sim.run sim;
  Alcotest.(check int) "survivors all fired" 9 !count

let test_compaction_trigger () =
  let sim = Sim.create () in
  let ids =
    Array.init 256 (fun i ->
        Sim.schedule sim ~at:(float_of_int (i + 1)) ignore)
  in
  (* cancel 3 of every 4: cancelled (192) overtakes live (64) well past
     the compaction threshold *)
  Array.iteri (fun i id -> if i mod 4 <> 0 then Sim.cancel sim id) ids;
  let st = Sim.stats sim in
  Alcotest.(check bool) "compaction ran" true (st.Sim.compactions >= 1);
  Alcotest.(check bool) "garbage bounded by live population" true
    (st.Sim.cancelled_in_set <= st.Sim.live);
  Alcotest.(check int) "live = pending" (Sim.pending sim) st.Sim.live;
  Sim.run sim;
  Alcotest.(check int) "only survivors fired" 64 (Sim.events_processed sim)

(* stale ids: cancel after fire is a no-op, and must not kill an
   unrelated event that reused the slot (generation check) *)
let test_stale_cancel () =
  let sim = Sim.create () in
  Sim.cancel sim Sim.stale_id;
  let fired = ref 0 in
  let old_id = Sim.schedule sim ~at:1.0 (fun () -> incr fired) in
  Sim.run sim;
  Alcotest.(check int) "fired once" 1 !fired;
  let fresh = ref false in
  ignore (Sim.schedule sim ~at:2.0 (fun () -> fresh := true));
  Sim.cancel sim old_id;
  (* the new event reuses the freed slot; the stale id must not match *)
  Alcotest.(check int) "stale cancel is a no-op" 1 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check bool) "slot-reusing event survived" true !fresh

(* Growth appends pages and moves no event: an id issued while the pool
   had one page still cancels its event after pages were appended, and an
   id whose slot was reused (by the first event scheduled after it fired)
   cancels nothing. *)
let test_ids_across_pages () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let early = Sim.schedule sim ~at:100.0 (fun () -> Alcotest.fail "cancelled event fired") in
  let gone = Sim.schedule sim ~at:1.0 (fun () -> incr fired) in
  Sim.run ~until:1.0 sim;
  Alcotest.(check int) "the event at 1.0 fired" 1 !fired;
  let cap0 = (Sim.stats sim).Sim.pool_capacity in
  let reuser = ref false in
  ignore (Sim.schedule sim ~at:2.0 (fun () -> reuser := true));
  let pages = 4 in
  for i = 1 to pages * Pool.page_size do
    ignore (Sim.schedule sim ~at:(2.0 +. float_of_int i) (fun () -> incr fired))
  done;
  let cap = (Sim.stats sim).Sim.pool_capacity in
  Alcotest.(check bool)
    (Printf.sprintf "pages appended (capacity %d -> %d)" cap0 cap)
    true
    (cap0 <= Pool.page_size && cap >= pages * Pool.page_size);
  let live = Sim.pending sim in
  Sim.cancel sim gone;
  Alcotest.(check int) "a reused slot's old id cancels nothing" live (Sim.pending sim);
  Sim.cancel sim early;
  Alcotest.(check int) "an id from before the appends cancels its event" (live - 1)
    (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check bool) "the slot's new event fired" true !reuser;
  Alcotest.(check int) "every other event fired" (1 + (pages * Pool.page_size)) !fired

(* The pool's footprint: scheduling 200,000 pending events with one
   shared action allocates at most 64 bytes per event, pages, page
   directories and calendar buckets included. It reads 51.5 B: 40 B a
   slot plus the calendar's doubling bucket arrays. Six parallel pool
   arrays doubled by copying, plus the calendar's own link and staging
   arrays, read 160 B. The times are boxed and the minor heap emptied
   before the count starts, so only the simulator's allocation is
   counted, and no promotion of earlier data is subtracted from it; the
   figure is the same in the dev profile and in release. *)
let test_schedule_bytes () =
  let n = 200_000 in
  let times = List.init n (fun i -> 1e-3 *. float_of_int ((i * 7919) mod n)) in
  let sim = Sim.create () in
  let shared () = () in
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  List.iter (fun at -> ignore (Sim.schedule sim ~at shared)) times;
  let per_event = (Gc.allocated_bytes () -. b0) /. float_of_int n in
  Alcotest.(check int) "all pending" n (Sim.pending sim);
  if per_event > 64.0 then
    Alcotest.failf "scheduling allocated %.1f B per pending event (ceiling 64)" per_event

(* a far-future outlier (clamped virtual bucket, direct-search path on the
   calendar) must not disturb near-term ordering, and must fire last *)
let test_far_future () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~at:1.0e12 (fun () -> log := "far" :: !log));
  for i = 1 to 50 do
    ignore
      (Sim.schedule sim ~at:(float_of_int i) (fun () -> log := "near" :: !log))
  done;
  Sim.run ~until:100.0 sim;
  Alcotest.(check int) "near events fired" 50 (List.length !log);
  ignore (Sim.schedule sim ~at:200.0 (fun () -> log := "late" :: !log));
  Sim.run sim;
  (* log is newest-first: the outlier fired last, preceded by the late add *)
  Alcotest.(check (list string))
    "outlier fires last" [ "far"; "late" ]
    (match !log with a :: b :: _ -> [ a; b ] | _ -> []);
  Alcotest.(check int) "every event fired" 52 (List.length !log);
  Alcotest.(check (float 0.0)) "clock at outlier" 1.0e12 (Sim.now sim)

let test_calendar_resizes () =
  let sim = Sim.create () in
  for i = 1 to 1000 do
    ignore (Sim.schedule sim ~at:(0.01 *. float_of_int i) ignore)
  done;
  let st = Sim.stats sim in
  Alcotest.(check bool) "grew past the initial bucket count" true
    (st.Sim.set_capacity > 16 && st.Sim.resizes >= 1);
  Sim.run sim;
  Alcotest.(check int) "all fired" 1000 (Sim.events_processed sim);
  let st' = Sim.stats sim in
  Alcotest.(check bool) "shrank while draining" true
    (st'.Sim.resizes > st.Sim.resizes)

(* ---- NaN times ---- *)

(* A NaN time compares false both ways; admitted, it fired between 1.0
   and 0.5 and then pulled the clock back to 0.5. *)
let test_nan_rejected () =
  let sim = Sim.create () in
  let fired = ref [] in
  let tag t () = fired := t :: !fired in
  ignore (Sim.schedule sim ~at:1.0 (tag 1.0));
  Alcotest.check_raises "schedule at nan"
    (Invalid_argument "Simulator.schedule: time nan is before now 0")
    (fun () -> ignore (Sim.schedule sim ~at:Float.nan (tag Float.nan)));
  (match Sim.schedule_after sim ~delay:Float.nan ignore with
  | _ -> Alcotest.fail "schedule_after with a nan delay was accepted"
  | exception Invalid_argument _ -> ());
  (match Sim.advance_clock sim ~to_:Float.nan with
  | () -> Alcotest.fail "advance_clock to nan was accepted"
  | exception Invalid_argument _ -> ());
  ignore (Sim.schedule sim ~at:0.5 (tag 0.5));
  Alcotest.(check int) "nothing pending but the two real events" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list (float 0.0))) "fire order" [ 0.5; 1.0 ] (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock ends at the last event" 1.0 (Sim.now sim)

(* ---- streams: [Sim.stream] = eager [Sim.schedule] of every entry ---- *)

(* [times] as an on-demand source that records what is drawn *)
let array_source times drawn k =
  drawn := k :: !drawn;
  times.(k)

(* A bad first time is refused at install, with nothing installed; a bad
   later time raises out of the entry that draws it, before that entry's
   action, and ends the stream. *)
let test_stream_rejects () =
  let sim = Sim.create () in
  Sim.run ~until:1.0 sim;
  let stream times action =
    let drawn = ref [] in
    Sim.stream sim ~n:(Array.length times) ~time:(array_source times drawn) action;
    drawn
  in
  let rejects name times =
    (match stream times (fun _ -> Alcotest.fail "entry fired") with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ());
    Alcotest.(check int) (name ^ ": nothing pending") 0 (Sim.pending sim)
  in
  rejects "before now" [| 0.5; 2.0 |];
  rejects "nan first" [| Float.nan; 2.0 |];
  rejects "infinite first" [| infinity |];
  let stops name times ~fired:want =
    let fired = ref [] in
    let drawn = stream times (fun k -> fired := k :: !fired) in
    (match Sim.run sim with
    | () -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ());
    Alcotest.(check (list int)) (name ^ ": the entries before it fired") want (List.rev !fired);
    Alcotest.(check (list int))
      (name ^ ": drawn once each, in order, up to the bad one")
      (List.init (List.length want + 2) Fun.id)
      (List.rev !drawn);
    Alcotest.(check int) (name ^ ": nothing pending") 0 (Sim.pending sim)
  in
  stops "decreasing" [| 1.0; 3.0; 2.0 |] ~fired:[ 0 ];
  stops "nan later" [| 3.0; Float.nan |] ~fired:[];
  stops "infinite later" [| 3.0; infinity |] ~fired:[];
  Sim.stream sim ~n:0 ~time:(fun _ -> Alcotest.fail "empty stream drew a time") (fun _ ->
      Alcotest.fail "empty stream fired");
  let fired = Sim.events_processed sim in
  Sim.run sim;
  Alcotest.(check int) "empty stream fires nothing" fired (Sim.events_processed sim)

(* One entry pending at a time, and an entry allocates no more than an
   eagerly scheduled event holding a shared closure. The source walks a
   float list, whose floats are boxed already, so it allocates nothing. *)
let test_stream_footprint () =
  let n = 20_000 in
  let times = List.init n (fun i -> 0.001 *. float_of_int (i / 2)) in
  let count = ref 0 in
  let action _ = incr count in
  let run_words install =
    let sim = Sim.create () in
    install sim;
    let w0 = Gc.minor_words () in
    Sim.run sim;
    (Gc.minor_words () -. w0, sim)
  in
  let stream_words, sim =
    run_words (fun sim ->
        let rest = ref times in
        let time _ =
          match !rest with
          | t :: tl ->
            rest := tl;
            t
          | [] -> Alcotest.fail "drew past the last entry"
        in
        Sim.stream sim ~n ~time action;
        Alcotest.(check int) "one entry pending" 1 (Sim.pending sim))
  in
  Alcotest.(check int) "every entry fired" n !count;
  Alcotest.(check int) "pool stays small" 16 (Sim.stats sim).Sim.pool_capacity;
  let shared () = incr count in
  let eager_words, _ =
    run_words (fun sim -> List.iter (fun at -> ignore (Sim.schedule sim ~at shared)) times)
  in
  if stream_words > eager_words +. 64.0 then
    Alcotest.failf "stream run allocated %.0f words, eager %.0f" stream_words eager_words

type sprog = {
  t0 : float; (* the stream is installed once the clock reaches t0 *)
  entries : (float * int) list; (* sorted (time, behaviour) *)
  before : (float * int) list; (* scheduled before the run to t0 *)
  after : (float * int) list; (* scheduled right after the install *)
  sops : sop list;
}

and sop = S_step | S_until of float | S_cancel of int

(* Times on a 0.25 grid, so entries, setup events and runtime events
   collide exactly and the FIFO tie-break decides. *)
let grid = QCheck.Gen.map (fun i -> 0.25 *. float_of_int i) (QCheck.Gen.int_bound 12)

let gen_sprog =
  let open QCheck.Gen in
  let* t0 = grid in
  let timed base = pair (map (fun x -> base +. x) grid) (int_bound 8) in
  let* entries = list_size (int_bound 30) (timed t0) in
  let* before = list_size (int_bound 10) (timed 0.0) in
  let* after = list_size (int_bound 10) (timed t0) in
  let* sops =
    list_size (int_bound 20)
      (frequency
         [
           (3, return S_step);
           (2, map (fun x -> S_until x) grid);
           (1, map (fun k -> S_cancel k) nat);
         ])
  in
  return { t0; entries = List.stable_sort compare entries; before; after; sops }

let print_sprog p =
  let evs l = String.concat " " (List.map (fun (t, c) -> Printf.sprintf "%g/%d" t c) l) in
  Printf.sprintf "t0=%g entries=[%s] before=[%s] after=[%s] ops=[%s]" p.t0 (evs p.entries)
    (evs p.before) (evs p.after)
    (String.concat " "
       (List.map
          (function
            | S_step -> "step" | S_until x -> Printf.sprintf "until+%g" x
            | S_cancel k -> Printf.sprintf "cancel#%d" k)
          p.sops))

(* Everything a handler or the op loop can see: who fired, the clock, and
   the earliest pending time, at every fire and after every op. *)
type sentry = S_fired of int * float * float | S_after of int * float * float

let run_sprog ~stream p =
  let sim = Sim.create () in
  let log = ref [] in
  let ids = Hashtbl.create 16 and labels = ref 0 in
  (* behaviour c: 1 mod 3 schedules a runtime event (c / 3) * 0.25 later
     (0 = a tie at this very instant), 2 mod 3 cancels an earlier event *)
  let rec body label c =
    log := S_fired (label, Sim.now sim, Sim.peek_time sim) :: !log;
    match c mod 3 with
    | 1 -> add (Sim.now sim +. (0.25 *. float_of_int (c / 3))) 0
    | 2 when !labels > 0 -> Sim.cancel sim (Hashtbl.find ids (c * 7 mod !labels))
    | _ -> ()
  and add at c =
    let label = !labels in
    incr labels;
    Hashtbl.replace ids label (Sim.schedule sim ~at (fun () -> body label c))
  in
  List.iter (fun (at, c) -> add at c) p.before;
  Sim.run ~until:p.t0 sim;
  let codes = Array.of_list (List.map snd p.entries) in
  let entry k = body (1_000_000 + k) codes.(k) in
  (if stream then
     let times = Array.of_list (List.map fst p.entries) in
     Sim.stream sim ~n:(Array.length times) ~time:(Array.get times) entry
   else List.iteri (fun k (at, _) -> ignore (Sim.schedule sim ~at (fun () -> entry k))) p.entries);
  List.iter (fun (at, c) -> add at c) p.after;
  List.iteri
    (fun i op ->
      (match op with
      | S_step -> ignore (Sim.step sim)
      | S_until x -> Sim.run ~until:(Sim.now sim +. x) sim
      | S_cancel k -> if !labels > 0 then Sim.cancel sim (Hashtbl.find ids (k mod !labels)));
      log := S_after (i, Sim.now sim, Sim.peek_time sim) :: !log)
    p.sops;
  Sim.run sim;
  (List.rev !log, Sim.now sim, Sim.events_processed sim)

let prop_stream_eager =
  QCheck.Test.make ~count:400 ~name:"stream = eager schedule (calendar)"
    (QCheck.make gen_sprog ~print:print_sprog)
    (fun p -> run_sprog ~stream:true p = run_sprog ~stream:false p)

let suite_qcheck =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xe5e7; 31 |]))
    [
      prop_lockstep;
      prop_lockstep_churn;
      prop_stream_eager;
    ]

let () =
  Alcotest.run "event_set"
    [
      ( "lockstep",
        suite_qcheck @ [ Alcotest.test_case "lockstep over pages" `Quick test_lockstep_pages ] );
      ( "run-until",
        [
          case "horizon boundary" test_until_boundary;
          case "empty horizon" test_until_empty;
          case "cancelled top reclaimed" test_cancelled_top_reclaimed;
        ] );
      ( "occupancy",
        [
          case "compaction trigger" test_compaction_trigger;
          case "stale cancel" test_stale_cancel;
          case "ids across page appends" test_ids_across_pages;
          case "schedule bytes ceiling" test_schedule_bytes;
        ] );
      ( "times",
        [
          case "nan rejected" test_nan_rejected;
          case "stream rejects bad times" test_stream_rejects;
          case "stream footprint" test_stream_footprint;
        ] );
      ( "calendar",
        [
          case "far-future outlier" test_far_future;
          Alcotest.test_case "adaptive resize" `Quick test_calendar_resizes;
        ] );
    ]
