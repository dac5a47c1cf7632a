(* Multi-port device scaling suite (bench id "shard").

   The parallel suite ("parallel") scales a fork-join sweep of
   independent experiment cells; this one scales the multi-port device,
   whose links are the same kind of independent task: one device, N
   links, each replayed whole by one worker. Same two claims, same guard
   philosophy:

   - *determinism*: every (links, jobs) cell must produce the same
     device hash as the 1-worker run of that cell — the hash folds every
     link's order-sensitive departure trace, so a single reordered or
     re-stamped packet anywhere in the device fails the suite;
   - *scaling*: aggregate pkts/s at -j J should approach min(J, cores)
     times the 1-worker run. The floor is the parallel suite's
     cores-aware curve, so the two suites stay comparable. *)

module Json = Bench_kit.Json

type row = {
  links : int;
  jobs : int;
  rounds : int;
  wall_s : float;
  pkts : int;
  pkts_per_sec : float;
  speedup : float;
  floor : float;
  device_hash : int64;
}

let jobs_ladder () =
  List.sort_uniq compare (1 :: 2 :: 4 :: 8 :: [ Parallel.Pool.cores () ])

let links_grid ~quick = if quick then [ 16 ] else [ 64; 256; 1024 ]

(* Size rounds so every grid point offers about the same total packet
   count — wall clock then measures throughput, not workload size. The
   full grid's 8 M packets keep every -j1 rung above 1 s (1.3–2.7 s on a
   2-vCPU host), long enough that a domain spawn or a scheduler hiccup
   cannot decide a speedup. *)
let rounds_for ~quick ~links =
  let target = if quick then 20_000 else 8_000_000 in
  let w = Shard.Device.default_workload ~rounds:1 in
  let per_round = links * w.Shard.Device.flows_per_link * (w.Shard.Device.burst_max / 2) in
  max 10 (target / max 1 per_round)

let run_cell ~links ~jobs ~rounds =
  let workload = Shard.Device.default_workload ~rounds in
  let t = Shard.Device.create ~workers:jobs ~workload ~links () in
  let r = Shard.Device.run t in
  (r.Shard.Device.wall_s, r.Shard.Device.total_pkts, r.Shard.Device.device_hash)

(* Best-of-[runs] wall clock per rung (interference only ever adds
   time); hash and pkts are checked equal across the runs for free. *)
let measure ?(quick = false) () =
  let cores = Parallel.Pool.cores () in
  let runs = if quick then 1 else 2 in
  let rows =
    List.concat_map
      (fun links ->
        let rounds = rounds_for ~quick ~links in
        let reference = ref None in
        List.map
          (fun jobs ->
            let cells = List.init runs (fun _ -> run_cell ~links ~jobs ~rounds) in
            let wall =
              List.fold_left (fun acc (w, _, _) -> Float.min acc w) infinity cells
            in
            let _, pkts, hash = List.hd cells in
            List.iter
              (fun (_, p, h) ->
                if p <> pkts || h <> hash then
                  failwith
                    (Printf.sprintf
                       "Shard_bench: links=%d -j%d not reproducible across runs"
                       links jobs))
              cells;
            (match !reference with
            | None -> reference := Some (pkts, hash)
            | Some (ref_pkts, ref_hash) ->
              if pkts <> ref_pkts || hash <> ref_hash then
                failwith
                  (Printf.sprintf
                     "Shard_bench: links=%d -j%d diverged from the -j1 \
                      reference (hash %s vs %s) — the device's determinism \
                      contract is broken"
                     links jobs
                     (Shard.Device.hash_hex hash)
                     (Shard.Device.hash_hex ref_hash)));
            (links, jobs, rounds, wall, pkts, hash))
          (jobs_ladder ()))
      (links_grid ~quick)
  in
  let wall_j1 ~links =
    match
      List.find_opt (fun (l, j, _, _, _, _) -> l = links && j = 1) rows
    with
    | Some (_, _, _, w, _, _) -> w
    | None -> assert false
  in
  ( cores,
    List.map
      (fun (links, jobs, rounds, wall_s, pkts, device_hash) ->
        {
          links;
          jobs;
          rounds;
          wall_s;
          pkts;
          pkts_per_sec = float_of_int pkts /. wall_s;
          speedup = wall_j1 ~links /. wall_s;
          floor = Parallel_bench.expected_floor ~cores ~jobs;
          device_hash;
        })
      rows )

(* -- JSON report --------------------------------------------------------- *)

let json_of_run ~quick ~cores rows =
  let row_json r =
    Json.Obj
      [
        ("links", Json.Num (float_of_int r.links));
        ("jobs", Json.Num (float_of_int r.jobs));
        ("rounds", Json.Num (float_of_int r.rounds));
        ("wall_s", Json.Num r.wall_s);
        ("pkts", Json.Num (float_of_int r.pkts));
        ("pkts_per_sec", Json.Num r.pkts_per_sec);
        ("speedup", Json.Num r.speedup);
        ("expected_floor", Json.Num r.floor);
        ("device_hash", Json.Str (Shard.Device.hash_hex r.device_hash));
      ]
  in
  let headline =
    let best =
      List.filter (fun r -> r.jobs <= cores) rows
      |> List.fold_left
           (fun acc r ->
             match acc with
             | Some b when b.speedup >= r.speedup -> acc
             | _ -> Some r)
           None
    in
    match best with
    | Some r ->
      Json.Obj
        [
          ("workload", Json.Str (Printf.sprintf "device_%dlinks_j%d" r.links r.jobs));
          ("pkts_per_sec", Json.Num r.pkts_per_sec);
          ("speedup", Json.Num r.speedup);
          ("expected_floor", Json.Num r.floor);
          ("cores", Json.Num (float_of_int cores));
        ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-shard-v1");
      ("bench", Json.Str "shard");
      ("quick", Json.Bool quick);
      ("cores", Json.Num (float_of_int cores));
      ("workload", Json.Str "shard_device");
      ("headline", headline);
      ("rows", Json.Arr (List.map row_json rows));
    ]

let report ~quick =
  let cores, rows = measure ~quick () in
  Printf.printf "cores=%d, device hash cross-checked per rung\n" cores;
  Printf.printf "%7s %5s %7s %12s %14s %9s %8s  %s\n" "links" "jobs" "rounds"
    "wall (s)" "pkts/s" "speedup" "floor" "device_hash";
  List.iter
    (fun r ->
      Printf.printf "%7d %5d %7d %12.3f %14.0f %8.2fx %7.2fx  %s\n" r.links
        r.jobs r.rounds r.wall_s r.pkts_per_sec r.speedup r.floor
        (Shard.Device.hash_hex r.device_hash))
    rows;
  json_of_run ~quick ~cores rows

(* Like the parallel guard: jobs > cores rungs are shown, not gated, and a
   1-core host runs the quick grid, where only determinism and "sharding
   costs nothing" are measurable. *)
let probe ~quick =
  let cores, rows = measure ~quick:(quick || Parallel.Pool.cores () < 2) () in
  Json.Obj
    [
      ( "rows",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("label", Json.Str (Printf.sprintf "links=%d jobs=%d" r.links r.jobs));
                   ("value", Json.Num r.speedup);
                   ("expected", Json.Num r.floor);
                   ("enforced", Json.Bool (r.jobs <= max 1 cores));
                 ])
             rows) );
    ]
