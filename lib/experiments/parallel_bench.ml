(* Multicore scaling suite (bench id "parallel").

   Runs the same wfi sweep grid — the paper's discipline × session-count
   evaluation grid, every cell a private simulator — under pools of 1, 2,
   4 and 8 workers, and reports wall clock and speedup vs -j1. Two claims
   are on the line:

   - *determinism*: every rung of the ladder must produce bit-identical
     results to the -j1 run (the suite serializes all measurements and
     fails hard on any diff — this is the pool's contract, checked on the
     real workload, not a toy);
   - *scaling*: speedup at -j J should approach min(J, cores). Speedup is
     machine-relative, so the report records [cores]
     (Domain.recommended_domain_count) and the guard scales its floor by
     it: on a 1-core container the floor degrades to "parallel dispatch
     must not cost anything", while an 8-core machine is held to the real
     3x-at-j8 target.

   Results go to BENCH_parallel.json; [probe] re-measures the ladder for
   the guard. *)

module Json = Bench_kit.Json

type row = {
  jobs : int;
  wall_s : float;
  speedup : float; (* wall(-j1) / wall(-jN), >= 1 when parallelism helps *)
  floor : float; (* cores-aware expected speedup at this rung *)
}

let jobs_ladder = [ 1; 2; 4; 8 ]

(* The acceptance targets at full core budget: 1.7x at -j2, 3x at -j8
   (sub-linear — domains share the allocator and memory bandwidth, and
   the grid has a serial tail). Between the anchors, interpolate; past
   the machine's cores, oversubscription can't add speedup, so the floor
   is taken at min(jobs, cores). *)
let expected_floor ~cores ~jobs =
  let eff = float_of_int (min jobs (max 1 cores)) in
  if eff <= 1.0 then 1.0
  else if eff <= 2.0 then 1.0 +. ((eff -. 1.0) *. 0.7)
  else if eff <= 4.0 then 1.7 +. ((eff -. 2.0) /. 2.0 *. 0.7)
  else if eff <= 8.0 then 2.4 +. ((eff -. 4.0) /. 4.0 *. 0.6)
  else 3.0

let grid ~quick =
  if quick then (Hpfq.Disciplines.[ wf2q_plus; wfq ], [ 8; 16; 24 ])
  else (Hpfq.Disciplines.pfq, [ 4; 8; 16; 24; 32; 48; 64 ])

(* One pass of the full grid takes ~0.1 s at -j1 in release: too short a
   rung to tell the pool's cost from host load. A rung runs the grid
   [passes] times over in one map, so the -j1 rung lasts over 1 s on a
   2-vCPU host (Shard_bench's [rounds_for] sizes its rungs the same way). *)
let passes ~quick = if quick then 1 else 16

let fingerprint (m : Wfi_probe.measurement) =
  Printf.sprintf "%s|%d|%.17g|%.17g|%.17g" m.discipline m.n m.measured_twfi
    m.wf2q_plus_bound m.probe_delay

let sweep_wall ~factories ~ns ~jobs =
  let pool = Parallel.Pool.create ~jobs () in
  let t0 = Unix.gettimeofday () in
  let ms = Wfi_probe.sweep_grid ~pool ~factories ~ns () in
  let wall = Unix.gettimeofday () -. t0 in
  (wall, List.map fingerprint ms)

(* Best-of-[runs] wall clock per rung: scaling benches report the least
   contended measurement, not the mean, because interference only ever
   adds time. *)
let measure ?(quick = false) () =
  let factories, ns = grid ~quick in
  let factories = List.concat (List.init (passes ~quick) (fun _ -> factories)) in
  let runs = if quick then 1 else 3 in
  let cores = Parallel.Pool.cores () in
  let reference = ref None in
  let rows =
    List.map
      (fun jobs ->
        let walls_and_prints =
          List.init runs (fun _ -> sweep_wall ~factories ~ns ~jobs)
        in
        let wall =
          List.fold_left (fun acc (w, _) -> Float.min acc w) infinity walls_and_prints
        in
        let prints = snd (List.hd walls_and_prints) in
        (match !reference with
        | None -> reference := Some prints
        | Some ref_prints ->
          if not (List.equal String.equal ref_prints prints) then
            failwith
              (Printf.sprintf
                 "Parallel_bench: sweep at -j%d diverged from the -j1 \
                  reference — the pool's determinism contract is broken"
                 jobs));
        (jobs, wall))
      jobs_ladder
  in
  let t1 = match rows with (1, w) :: _ -> w | _ -> assert false in
  ( cores,
    List.length factories * List.length ns,
    List.map
      (fun (jobs, wall) ->
        { jobs; wall_s = wall; speedup = t1 /. wall; floor = expected_floor ~cores ~jobs })
      rows )

(* -- JSON report --------------------------------------------------------- *)

let json_of_run ~quick ~cores ~tasks rows =
  let row_json r =
    Json.Obj
      [
        ("jobs", Json.Num (float_of_int r.jobs));
        ("wall_s", Json.Num r.wall_s);
        ("speedup", Json.Num r.speedup);
        ("expected_floor", Json.Num r.floor);
      ]
  in
  let headline =
    match List.find_opt (fun r -> r.jobs = 8) rows with
    | Some r ->
      Json.Obj
        [
          ("workload", Json.Str "wfi_sweep_grid_j8");
          ("speedup", Json.Num r.speedup);
          ("expected_floor", Json.Num r.floor);
          ("cores", Json.Num (float_of_int cores));
        ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-parallel-v1");
      ("bench", Json.Str "parallel");
      ("quick", Json.Bool quick);
      ("cores", Json.Num (float_of_int cores));
      ("workload", Json.Str "wfi_sweep_grid");
      ("tasks", Json.Num (float_of_int tasks));
      ("headline", headline);
      ("rows", Json.Arr (List.map row_json rows));
    ]

let report ~quick =
  let cores, tasks, rows = measure ~quick () in
  Printf.printf "cores=%d, grid=%d tasks, determinism cross-checked per rung\n"
    cores tasks;
  Printf.printf "%6s %12s %10s %14s\n" "jobs" "wall (s)" "speedup" "floor (cores)";
  List.iter
    (fun r ->
      Printf.printf "%6d %12.3f %9.2fx %13.2fx\n" r.jobs r.wall_s r.speedup r.floor)
    rows;
  json_of_run ~quick ~cores ~tasks rows

(* Unlike the throughput guards this one does not diff a committed
   number: speedup is a property of the host (core count, contention), so
   the committed BENCH_parallel.json documents one machine while the
   guard holds the cores-scaled floor on whatever machine it runs on.
   Rungs that oversubscribe the host (jobs > cores) are shown, not gated:
   on a time-sliced core, extra domains cost wall clock for runtime
   reasons (GC coordination, allocator contention), not pool ones. A
   1-core host can only verify "fan-out costs nothing", which the quick
   grid already shows. *)
let probe ~quick =
  let cores, _, rows = measure ~quick:(quick || Parallel.Pool.cores () < 2) () in
  Json.Obj
    [
      ( "rows",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("label", Json.Str (Printf.sprintf "jobs=%d" r.jobs));
                   ("value", Json.Num r.speedup);
                   ("expected", Json.Num r.floor);
                   ("enforced", Json.Bool (r.jobs <= max 1 cores));
                 ])
             rows) );
    ]
