(* Multi-port device scaling suite (bench id "shard").

   The parallel suite ("parallel") scales a fork-join sweep of
   independent experiment cells; this one scales the multi-port device,
   whose links are the same kind of independent task: one device, N
   links, each replayed whole by one worker. Same two claims, same guard
   philosophy:

   - *determinism*: every run of a links count, at any -j, must produce
     the same device hash;
   - *scaling*: aggregate pkts/s at -j J, as same-run pairs against the
     1-worker run, should approach min(J, cores). The floor is the
     parallel suite's cores-aware curve, so the two suites stay
     comparable. *)

module Json = Bench_kit.Json
module Suite = Bench_kit.Suite

let links_grid ~quick = if quick then [ 16 ] else [ 64; 256; 1024 ]

(* Size rounds so every links count offers about the same total packet
   count — wall clock then measures throughput, not workload size. At
   2 M packets a -j1 run lasts ~0.3–0.7 s on a 2-vCPU host; a domain
   spawn or a scheduler hiccup lands in one pair, and the median drops
   it. *)
let rounds_for ~quick ~links =
  let target = if quick then 20_000 else 2_000_000 in
  let w = Shard.Device.default_workload ~rounds:1 in
  let per_round = links * w.Shard.Device.flows_per_link * (w.Shard.Device.burst_max / 2) in
  max 10 (target / max 1 per_round)

(* Device rates at -j[jobs] and -j1 for one links count, as same-run
   pairs. Every run's device hash must equal the first one's: the hash
   folds every link's order-sensitive departure trace, so a single
   reordered or re-stamped packet anywhere in the device fails the
   suite. Returns the rung function and the hash cell. *)
let rung ~quick ~links =
  let workload = Shard.Device.default_workload ~rounds:(rounds_for ~quick ~links) in
  let hash = ref None in
  let rate jobs () =
    let r = Shard.Device.run (Shard.Device.create ~workers:jobs ~workload ~links ()) in
    (match !hash with
    | None -> hash := Some r.Shard.Device.device_hash
    | Some h when h = r.Shard.Device.device_hash -> ()
    | Some h ->
      failwith
        (Printf.sprintf
           "Shard_bench: links=%d -j%d hash %s diverged from %s — the device's \
            determinism contract is broken"
           links jobs
           (Shard.Device.hash_hex r.Shard.Device.device_hash)
           (Shard.Device.hash_hex h)));
    float_of_int r.Shard.Device.total_pkts /. r.Shard.Device.wall_s
  in
  ((fun jobs -> Suite.pairs ~num:(rate jobs) ~den:(rate 1) ()), hash)

let report ~quick =
  let cores = Parallel.Pool.cores () in
  Printf.printf "cores=%d, device hash cross-checked per run\n" cores;
  Printf.printf "%7s %5s %9s %8s  %s\n" "links" "jobs" "speedup" "floor" "device_hash";
  let rows =
    List.concat_map
      (fun links ->
        let rung, hash = rung ~quick ~links in
        List.map
          (fun jobs ->
            let pairs = rung jobs in
            let floor = Parallel_bench.expected_floor ~cores ~jobs in
            let h = Shard.Device.hash_hex (Option.get !hash) in
            Printf.printf "%7d %5d %8.2fx %7.2fx  %s\n" links jobs (Suite.ratio pairs) floor h;
            Json.Obj
              [
                ("links", Json.Num (float_of_int links));
                ("jobs", Json.Num (float_of_int jobs));
                ("speedup", Json.Num (Suite.ratio pairs));
                ("expected_floor", Json.Num floor);
                ("device_hash", Json.Str h);
                ("pkts_per_sec", pairs);
              ])
          Parallel_bench.jobs_ladder)
      (links_grid ~quick)
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-shard-v2");
      ("bench", Json.Str "shard");
      ("quick", Json.Bool quick);
      ("cores", Json.Num (float_of_int cores));
      ("workload", Json.Str "shard_device");
      ("rows", Json.Arr rows);
    ]

(* Like the parallel guard: only the rungs from 2 jobs up to the cores
   are measured, at every links count, and a 1-core host runs the 2-job
   rung on the quick grid, where only determinism and "sharding costs
   nothing" are measurable. *)
let probe ~quick =
  let cores = Parallel.Pool.cores () in
  let quick = quick || cores < 2 in
  Json.Obj
    [
      ( "rows",
        Json.Arr
          (List.concat_map
             (fun links ->
               let rung, _ = rung ~quick ~links in
               List.map
                 (fun jobs ->
                   Json.Obj
                     [
                       ("label", Json.Str (Printf.sprintf "links=%d jobs=%d" links jobs));
                       ("pairs", rung jobs);
                       ("expected", Json.Num (Parallel_bench.expected_floor ~cores ~jobs));
                     ])
                 (Parallel_bench.gated_rungs ~cores))
             (links_grid ~quick)) );
    ]
