(* One run of one workload, inside its own child process: timed set-ups,
   rounds cut into timed windows, and the correctness gate.

   Rounds repeat until [seconds] have passed (always at least one; a
   quick run does exactly two). Every round does the same fixed work on a
   freshly built engine, so all rounds of a run — and of every run at the
   same seed — must produce the same departure hash. The simulated delays
   are taken from round 1 alone, which makes the delay metrics a pure
   function of the seed. *)

open Workloads

let window_capacity = 65_536
let span_capacity = 20_000

type outcome = {
  metrics : (string * float) list;
  attempted : int;  (** packets offered over all rounds *)
  failed : int;  (** packets in rounds (or prefixes) that failed a check *)
  hash : int;  (** round-1 departure hash *)
}

let say fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Rebuild the same input on the generic [Hpfq.Hier] and count the first
   [n] departures that differ from the fast engine's in (leaf, seq, time). *)
let reference_mismatches ctx ~n =
  let r = recorder ~prefix:n () in
  let rd = build { ctx with r; spans = None } Reference in
  rd.prime ();
  ignore (rd.replay ());
  let k = ref 1 in
  while r.departures < n && !k <= rd.windows do
    run_window rd.e (rd.window_end !k);
    incr k
  done;
  let fast = ctx.r and bad = ref 0 in
  for i = 0 to n - 1 do
    if
      i >= r.departures
      || r.pre_leaf.(i) <> fast.pre_leaf.(i)
      || r.pre_seq.(i) <> fast.pre_seq.(i)
      || not (Float.equal r.pre_time.(i) fast.pre_time.(i))
    then incr bad
  done;
  !bad

(* Round 1 again with the flush rounds run inline (workers = 0): the
   schedule must not depend on the worker count. *)
let workers_invariant ctx ~hash ~departures =
  let r = recorder ~prefix:0 () in
  let rd = build { ctx with r; spans = None } (Workers 0) in
  rd.prime ();
  for k = 1 to rd.windows do
    run_window rd.e (rd.window_end k)
  done;
  Sim.run rd.e.sim;
  rd.e.shutdown ();
  r.hash land max_int = hash && r.departures = departures

let measure kind ~seed ~quick ~seconds ~trace_file ~traced ~choice ~expect_hash ~checks
    ~spans_path ~provenance =
  let p = params kind ~quick in
  let input = input kind ~seed p ~trace_file in
  let r = recorder ~delays:(departure_bound p input) ~prefix:p.prefix () in
  let spans = if traced then Some (Spans.create ~capacity:span_capacity) else None in
  let ctx = { kind; p; input; r; spans } in
  let gc_events = if traced then Some (Gc_events.start ()) else None in
  let win_ns = Array.make window_capacity 0.0 and win_pkts = Array.make window_capacity 0.0 in
  let nw = ref 0 in
  (* the fastest time, over the rounds, of each window of a round and of
     the round's replay call *)
  let best_ns = Array.make window_capacity max_int and best_replay_ns = ref max_int in
  let delays = r.delays in
  (* everything the benchmark itself holds is allocated by now; the heap
     metric counts growth beyond this point *)
  Gc.full_major ();
  let base_words = (Gc.quick_stat ()).heap_words in
  let setups = ref [] in
  let timed_build () =
    let t0 = Util.now_ns () in
    let rd = build ctx choice in
    setups := (float_of_int (Util.now_ns () - t0) *. 1e-9) :: !setups;
    rd
  in
  let rounds = ref 0 and attempted = ref 0 and failed = ref 0 in
  let departures = ref 0 and windowed = ref 0 and drops = ref 0 in
  let replayed = ref 0 and first_hash = ref None and round1 = ref None in
  let minor = ref 0.0 and promoted = ref 0.0 and minor_gcs = ref 0 and major_gcs = ref 0 in
  let gc_busy () = Option.fold ~none:0 ~some:Gc_events.busy_ns gc_events in
  let gc_ns = ref 0 and timed_ns = ref 0 in
  let deadline = Util.now_ns () + int_of_float (seconds *. 1e9) in
  let more () = if quick then !rounds < 2 else !rounds = 0 || Util.now_ns () < deadline in
  while more () do
    (* set-ups are sampled all through the run, so that a slow spell of
       the host cannot own every sample *)
    for _ = 1 to p.extra_setups do
      Gc.full_major ();
      (timed_build ()).e.shutdown ()
    done;
    reset r;
    Gc.full_major ();
    Option.iter (fun sp -> Spans.enter sp Spans.round) spans;
    let rd = timed_build () in
    rd.prime ();
    let g0 = Gc.quick_stat () in
    let b0 = gc_busy () in
    let t0 = Util.now_ns () in
    replayed := !replayed + with_span ctx Spans.replay rd.replay;
    best_replay_ns := min !best_replay_ns (Util.now_ns () - t0);
    let pending = Sim.pending rd.e.sim in
    for k = 1 to rd.windows do
      let d0 = r.departures and until = rd.window_end k in
      let t = Util.now_ns () in
      (match spans with
      | None -> run_window rd.e until
      | Some sp ->
        Spans.enter sp Spans.engine_run;
        run_window rd.e until;
        Spans.leave sp);
      let dt = Util.now_ns () - t in
      best_ns.(k - 1) <- min best_ns.(k - 1) dt;
      if !nw < window_capacity then begin
        win_ns.(!nw) <- float_of_int dt;
        win_pkts.(!nw) <- float_of_int (r.departures - d0);
        incr nw
      end;
      Option.iter Gc_events.poll gc_events
    done;
    let g1 = Gc.quick_stat () in
    gc_ns := !gc_ns + (gc_busy () - b0);
    timed_ns := !timed_ns + (Util.now_ns () - t0);
    Option.iter Spans.leave spans;
    let round_windowed = r.departures in
    minor := !minor +. (g1.minor_words -. g0.minor_words);
    promoted := !promoted +. (g1.promoted_words -. g0.promoted_words);
    minor_gcs := !minor_gcs + (g1.minor_collections - g0.minor_collections);
    major_gcs := !major_gcs + (g1.major_collections - g0.major_collections);
    if rd.drain then Sim.run rd.e.sim;
    let live = Net.Packet_pool.live_count rd.e.pool in
    let conserved = r.arrivals = r.departures + r.drops + live in
    let no_leak = live = rd.standing in
    let same =
      match !first_hash with
      | None ->
        first_hash := Some r.hash;
        true
      | Some h -> h = r.hash
    in
    if not (conserved && no_leak && same) then begin
      say "%s round %d: arrivals %d, departures %d, drops %d, live %d (expected %d), hash %s"
        (name kind) (!rounds + 1) r.arrivals r.departures r.drops live rd.standing
        (hash_hex r.hash);
      failed := !failed + r.arrivals
    end;
    if !rounds = 0 then begin
      round1 :=
        Some
          (Sim.stats rd.e.sim, rd.e.sync_rounds (), r.departures, pending, rd.windows,
           round_windowed);
      r.delays <- [||]
    end;
    attempted := !attempted + r.arrivals;
    departures := !departures + r.departures;
    windowed := !windowed + round_windowed;
    drops := !drops + r.drops;
    rd.e.shutdown ();
    incr rounds
  done;
  let top_words = (Gc.quick_stat ()).top_heap_words in
  let hash = Option.get !first_hash land max_int in
  let stats, sync_rounds, round_departures, pending, windows, round_windowed =
    Option.get !round1
  in
  (match expect_hash with
  | Some h when h <> hash ->
    say "%s: departure hash %s, expected %s: every packet counts as failed" (name kind)
      (hash_hex hash) (hash_hex h);
    failed := !attempted
  | _ -> ());
  if checks then begin
    match kind with
    | Port_4k | Tree_4k_d6 | Imix_replay ->
      let bad = reference_mismatches ctx ~n:(min p.prefix round_departures) in
      if bad > 0 then begin
        say "%s: %d of the first %d departures differ from the generic Hier reference"
          (name kind) bad (min p.prefix round_departures);
        failed := min !attempted (!failed + bad)
      end
    | Subtree_overload ->
      if not (workers_invariant ctx ~hash ~departures:round_departures) then begin
        say "%s: the schedule changes with the worker count" (name kind);
        failed := min !attempted (!failed + (!attempted / !rounds))
      end
  end;
  let costs = Array.make !nw 0.0 and n = ref 0 in
  for i = 0 to !nw - 1 do
    if win_pkts.(i) > 0.0 then begin
      costs.(!n) <- win_ns.(i) /. win_pkts.(i);
      incr n
    end
  done;
  let per_pkt x = x /. float_of_int (max 1 !windowed) in
  (* On a shared host, interference only ever slows a window down, and it
     comes in episodes that can slow most of a run. Every round repeats
     the same work window for window, so each window's fastest time over
     the rounds is its cost with the interference filtered out. The
     throughput is a round's windowed departures over the sum of those
     costs and of the fastest replay call: every window counts at its own
     cost, the light and bursty windows of imix_replay as much as the
     heavy ones. *)
  let best_round_ns = ref (float_of_int !best_replay_ns) in
  for k = 0 to windows - 1 do
    best_round_ns := !best_round_ns +. float_of_int best_ns.(k)
  done;
  let delays = Util.sorted_copy delays (min round_departures (Array.length delays)) in
  let measured =
    [
      ("pkts_per_s", float_of_int round_windowed *. 1e9 /. !best_round_ns);
      (* set-up times behave the same way: the fastest decile *)
      ("setup_s", Util.quantile (Array.of_list !setups) (List.length !setups) 0.1);
      ( "peak_heap_mb",
        float_of_int (top_words - base_words) *. float_of_int (Sys.word_size / 8) /. 1e6 );
      ("sim_delay_p50_us", Util.quantile_sorted delays 0.5 *. 1e6);
      ("sim_delay_p999_us", Util.quantile_sorted delays 0.999 *. 1e6);
      ("loss_frac", float_of_int !drops /. float_of_int (max 1 !attempted));
      ("window.ns_per_pkt_p50", Util.median costs !n);
      ("window.ns_per_pkt_p99", Util.quantile costs !n 0.99);
      ("gc.minor_words_per_pkt", per_pkt !minor);
      ("gc.promoted_words_per_pkt", per_pkt !promoted);
      ("gc.minor_collections_per_mpkt", per_pkt (float_of_int !minor_gcs) *. 1e6);
      ("gc.major_collections_per_mpkt", per_pkt (float_of_int !major_gcs) *. 1e6);
      ("engine.pool_capacity", float_of_int stats.Sim.pool_capacity);
      ("engine.resizes", float_of_int stats.Sim.resizes);
      ( "shard.subtree.sync_rounds_per_kpkt",
        float_of_int sync_rounds *. 1e3 /. float_of_int (max 1 round_departures) );
      ("engine.pending", float_of_int pending);
    ]
  in
  let traced_metrics =
    match spans with
    | None -> []
    | Some sp ->
      Spans.write sp ~path:spans_path ~provenance;
      let run_self = per_pkt (float_of_int (Spans.self_ns sp Spans.engine_run)) in
      [
        ("engine.run_self_ns_per_pkt", run_self);
        ( "core.inject_ns_per_pkt",
          float_of_int (Spans.total_ns sp Spans.core_inject) /. float_of_int (max 1 !attempted) );
        ("core.hier_flat.ns_per_level", run_self /. float_of_int (levels kind));
        ( "traffic.replay_schedule_ns_per_pkt",
          if !replayed = 0 then 0.0
          else float_of_int (Spans.total_ns sp Spans.replay) /. float_of_int !replayed );
        ( "bench.hook_self_ns_per_pkt",
          float_of_int (Spans.self_ns sp Spans.hook_depart) /. float_of_int (max 1 !departures) );
        ("gc.busy_frac", float_of_int !gc_ns /. float_of_int (max 1 !timed_ns));
      ]
  in
  { metrics = measured @ traced_metrics; attempted = !attempted; failed = !failed; hash }
