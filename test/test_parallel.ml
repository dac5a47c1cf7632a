(* The multicore sweep runner's contracts, each tested directly:

   - Pool.map is observationally a pure [Array.init] for any worker
     count — same values, same order, exceptions propagated;
   - Rng.for_task derives stable per-index streams: order- and
     worker-independent (unlike [split], which advances the parent),
     pairwise distinct, parent left untouched;
   - sweeps are bit-identical across -j1 / -j4 / -j8 and equal to the
     pre-pool sequential formulation (the determinism contract on real
     workloads). *)

module Pool = Parallel.Pool
module Rng = Engine.Rng
module Q = QCheck

(* ---- Pool.map as Array.init ---- *)

let test_map_matches_sequential () =
  let f i = (i * i) + 7 in
  let expected = Array.init 23 f in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      Alcotest.(check (array int))
        (Printf.sprintf "map at -j%d" jobs)
        expected
        (Pool.map pool ~tasks:23 ~f))
    [ 1; 4; 7 ]

let test_map_reduce_merges_in_index_order () =
  let pool = Pool.create ~jobs:4 () in
  let collected =
    Pool.map_reduce pool ~tasks:17 ~f:(fun i -> i) ~merge:(fun acc v -> v :: acc) ~init:[]
  in
  Alcotest.(check (list int))
    "merge sees results in task-index order"
    (List.init 17 (fun i -> i))
    (List.rev collected)

let test_map_list () =
  let pool = Pool.create ~jobs:3 () in
  let xs = [ "a"; "bb"; "ccc"; "dddd"; "eeeee" ] in
  Alcotest.(check (list int))
    "map_list = List.map" (List.map String.length xs)
    (Pool.map_list pool ~f:String.length xs)

exception Task_boom of int

let test_exception_propagates () =
  let pool = Pool.create ~jobs:4 () in
  Alcotest.check_raises "worker exception reaches the caller" (Task_boom 5)
    (fun () ->
      ignore (Pool.map pool ~tasks:16 ~f:(fun i -> if i = 5 then raise (Task_boom 5) else i)));
  (* every domain of the failed call was joined: the pool is still usable *)
  Alcotest.(check (array int))
    "next map on the same pool is clean" (Array.init 16 (fun i -> i))
    (Pool.map pool ~tasks:16 ~f:(fun i -> i))

let test_edge_cases () =
  let pool = Pool.create ~jobs:4 () in
  Alcotest.(check (array int)) "tasks=0 is empty" [||] (Pool.map pool ~tasks:0 ~f:(fun i -> i));
  Alcotest.(check (array int))
    "more workers than tasks" [| 0; 1 |]
    (Pool.map (Pool.create ~jobs:16 ()) ~tasks:2 ~f:(fun i -> i));
  (match Pool.create ~jobs:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Pool.create ~jobs:0 must be rejected");
  match Pool.map pool ~tasks:(-1) ~f:(fun i -> i) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative task count must be rejected"

(* ---- Rng.for_task ---- *)

let draws n rng = List.init n (fun _ -> Rng.next_int64 rng)

let test_for_task_leaves_parent_untouched () =
  let a = Rng.create 42L and b = Rng.create 42L in
  ignore (Rng.for_task a 0);
  ignore (Rng.for_task a 999);
  Alcotest.(check (list int64))
    "parent stream unchanged by child derivation" (draws 4 b) (draws 4 a)

let test_for_task_order_insensitive () =
  let child_streams order =
    let t = Rng.create 7L in
    let tbl = Hashtbl.create 8 in
    List.iter (fun i -> Hashtbl.replace tbl i (draws 4 (Rng.for_task t i))) order;
    List.map (fun i -> Hashtbl.find tbl i) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list (list int64)))
    "derivation order is immaterial"
    (child_streams [ 0; 1; 2; 3 ])
    (child_streams [ 3; 1; 0; 2 ])

let test_for_task_children_distinct () =
  let t = Rng.create 1L in
  let firsts = List.init 256 (fun i -> Rng.next_int64 (Rng.for_task t i)) in
  let uniq = List.sort_uniq Int64.compare firsts in
  Alcotest.(check int) "256 children, 256 distinct first draws" 256 (List.length uniq)

let test_for_task_negative_rejected () =
  match Rng.for_task (Rng.create 0L) (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "for_task must reject negative indices"

let prop_for_task_deterministic_and_distinct =
  Q.Test.make ~count:200 ~name:"for_task: deterministic; distinct i<>j"
    Q.(triple int64 small_nat small_nat)
    (fun (seed, i, j) ->
      let stream k = draws 8 (Rng.for_task (Rng.create seed) k) in
      stream i = stream i && (i = j || stream i <> stream j))

(* Adjacent task streams must not be visibly correlated: a crude smoke
   check that the mean pairwise sample correlation across neighbouring
   children stays near zero (SplitMix64's double-mix breaks the lattice
   structure of the raw child seeds). *)
let test_for_task_correlation_smoke () =
  let t = Rng.create 12345L in
  let n = 512 in
  let series i =
    let rng = Rng.for_task t i in
    Array.init n (fun _ -> Rng.uniform rng)
  in
  let correlation xs ys =
    let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
    let mx = mean xs and my = mean ys in
    let cov = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
    Array.iteri
      (fun k x ->
        let dx = x -. mx and dy = ys.(k) -. my in
        cov := !cov +. (dx *. dy);
        vx := !vx +. (dx *. dx);
        vy := !vy +. (dy *. dy))
      xs;
    !cov /. sqrt (!vx *. !vy)
  in
  for i = 0 to 7 do
    let c = correlation (series i) (series (i + 1)) in
    if Float.abs c > 0.1 then
      Alcotest.failf "children %d and %d correlate at %.3f" i (i + 1) c
  done

(* ---- sweep determinism across worker counts ---- *)

let wfi_fingerprint (m : Experiments.Wfi_probe.measurement) =
  Printf.sprintf "%s|%d|%.17g|%.17g|%.17g" m.discipline m.n m.measured_twfi
    m.wf2q_plus_bound m.probe_delay

let test_wfi_sweep_deterministic_across_jobs () =
  let factories = Hpfq.Disciplines.[ wf2q_plus; wfq ] and ns = [ 4; 8 ] in
  (* the pre-pool formulation: nested sequential loops over private sims *)
  let legacy =
    List.concat_map
      (fun factory ->
        List.map (fun n -> wfi_fingerprint (Experiments.Wfi_probe.measure ~factory ~n ())) ns)
      factories
  in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      let swept =
        List.map wfi_fingerprint (Experiments.Wfi_probe.sweep_grid ~pool ~factories ~ns ())
      in
      Alcotest.(check (list string))
        (Printf.sprintf "wfi sweep at -j%d = sequential" jobs)
        legacy swept)
    [ 1; 4; 8 ]

let delay_fingerprint (r : Experiments.Delay_experiment.result) =
  Printf.sprintf "%s|%d|%d|%.17g|%.17g|%.17g|%.17g" r.discipline r.rt_packets r.drops
    (Stats.Delay_stats.max_delay r.delays)
    (Stats.Delay_stats.mean r.delays)
    (Stats.Delay_stats.stddev r.delays)
    r.link_utilization

let test_delay_sweep_deterministic_across_jobs () =
  let run jobs =
    let pool = Pool.create ~jobs () in
    List.map delay_fingerprint
      (Experiments.Delay_experiment.run_sweep ~pool
         ~factories:Hpfq.Disciplines.[ wf2q_plus; wfq ]
         ~scenario:Experiments.Delay_experiment.S2_overloaded_poisson ~horizon:1.0
         ~seed:3L ~replications:2 ())
  in
  let reference = run 1 in
  Alcotest.(check (list string)) "delay sweep at -j8 = -j1" reference (run 8);
  Alcotest.(check int) "grid size = disciplines x replications" 4 (List.length reference)

(* ---- One pool, many rounds ---- *)

let test_many_rounds_on_one_pool () =
  (* a pool is a configuration: every call spawns and joins its own
     domains, so one pool persists across call after call, each a fresh
     round *)
  let pool = Pool.create ~jobs:4 () in
  for round = 1 to 50 do
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.init round (fun i -> i * round))
      (Pool.map pool ~tasks:round ~f:(fun i -> i * round))
  done

let test_failed_round_then_reuse () =
  let pool = Pool.create ~jobs:3 () in
  for round = 1 to 3 do
    (match Pool.map pool ~tasks:8 ~f:(fun i -> if i = round then raise (Task_boom i) else i) with
    | exception Task_boom i when i = round -> ()
    | _ -> Alcotest.fail "expected Task_boom");
    (* the pool survives a failed round *)
    Alcotest.(check (array int))
      (Printf.sprintf "round after failure %d is clean" round)
      (Array.init 4 (fun i -> i))
      (Pool.map pool ~tasks:4 ~f:(fun i -> i))
  done

let test_zero_domains_sequential () =
  (* -j1 spawns no domain: every task runs in the caller, in index order *)
  let caller = Domain.self () in
  let order = ref [] in
  let got =
    Pool.map (Pool.create ~jobs:1 ()) ~tasks:5 ~f:(fun i ->
        order := i :: !order;
        (i * 2, Domain.self () = caller))
  in
  Alcotest.(check (array int)) "map runs in the caller" (Array.init 5 (fun i -> i * 2))
    (Array.map fst got);
  Alcotest.(check bool) "no task left the caller" true (Array.for_all snd got);
  Alcotest.(check (list int)) "tasks run in index order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_forkjoin_map_unchanged () =
  (* Pool.map forks its domains per call and joins them before returning;
     the Array.init contract is unchanged *)
  let pool = Pool.create ~jobs:5 () in
  Alcotest.(check (array int))
    "fork-join map" (Array.init 31 (fun i -> i * 3))
    (Pool.map pool ~tasks:31 ~f:(fun i -> i * 3))

let suite =
  [
    ("map matches sequential at -j1/-j4/-j7", `Quick, test_map_matches_sequential);
    ("map_reduce merges in index order", `Quick, test_map_reduce_merges_in_index_order);
    ("map_list mirrors List.map", `Quick, test_map_list);
    ("worker exceptions propagate", `Quick, test_exception_propagates);
    ("edge cases: empty, oversubscribed, invalid", `Quick, test_edge_cases);
    ("for_task leaves parent untouched", `Quick, test_for_task_leaves_parent_untouched);
    ("for_task is order-insensitive", `Quick, test_for_task_order_insensitive);
    ("for_task children pairwise distinct", `Quick, test_for_task_children_distinct);
    ("for_task rejects negative index", `Quick, test_for_task_negative_rejected);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0x9a11e1 |])
      prop_for_task_deterministic_and_distinct;
    ("for_task adjacent streams uncorrelated", `Quick, test_for_task_correlation_smoke);
    ("persistent: 50 rounds on one pool", `Quick, test_many_rounds_on_one_pool);
    ("persistent: failed round then reuse", `Quick, test_failed_round_then_reuse);
    ("persistent: zero domains is sequential", `Quick, test_zero_domains_sequential);
    ("fork-join map delegates unchanged", `Quick, test_forkjoin_map_unchanged);
    ("wfi sweep bit-identical across -j", `Slow, test_wfi_sweep_deterministic_across_jobs);
    ("delay sweep bit-identical across -j", `Slow, test_delay_sweep_deterministic_across_jobs);
  ]

let () = Alcotest.run "parallel" [ ("pool", suite) ]
