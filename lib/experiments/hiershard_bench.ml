(* Subtree-sharded hierarchy suite (bench id "hiershard").

   The shard suite ("shard") scales N *independent* per-link hierarchies;
   this one scales ONE giant hierarchy: the root's child subtrees
   partitioned over Hier_flat's epoch-layer shards, the root's WF2Q+ run in
   epochs.
   Every sync runs on the calling domain, so each cell runs on one core.
   Two claims, guarded differently:

   - *exactness at epoch 1*: every epoch = 1 rung must produce the same
     departure hash as the sequential Hier_flat reference, at any shard
     count — binding on every host;
   - *throughput*: epoch-batched rungs should stay near the sequential
     reference (the root sync is the sequential section, so this is a
     no-regression floor, not a linear speedup curve). *)

module Json = Bench_kit.Json
module HF = Hpfq.Hier_flat
module CT = Hpfq.Class_tree

type row = {
  shards : int;
  epoch : int;
  wall_s : float;
  pkts : int;
  pkts_per_sec : float;
  ratio_vs_flat : float;  (** pkts_per_sec / the Hier_flat reference's *)
  depart_hash : int64;
  exact : bool;  (** epoch = 1: hash must equal the flat reference *)
}

let shards_ladder () = [ 1; 4; 16 ]
let epoch_ladder () = [ 1; 8; 64 ]

(* -- workload: one wide hierarchy, overloaded burst arrivals ------------- *)

let root_children = 16
let leaves_per_child = 4

let spec () =
  let sub i =
    let r = 0.999 /. float_of_int root_children in
    CT.node (Printf.sprintf "sub%d" i) ~rate:r
      (List.init leaves_per_child (fun j ->
           CT.leaf
             (Printf.sprintf "sub%d/leaf%d" i j)
             ~rate:(0.999 *. r /. float_of_int leaves_per_child)))
  in
  CT.node "root" ~rate:1.0 (List.init root_children sub)

(* (time, leaf index, size_bits, count) bursts; offered load ~1.5x the
   link so arrivals land while the link transmits — the staging path is
   what the epoch rungs measure. Deterministic in the seed. *)
let program ~quick =
  let target = if quick then 20_000 else 200_000 in
  let burst = 4 in
  let n_leaves = root_children * leaves_per_child in
  let rng = Random.State.make [| 0x415; 0x3aed |] in
  let size = 1.0 in
  let duration =
    (* total_bits / (overload * rate), overload = 1.5 *)
    float_of_int target *. size /. 1.5
  in
  List.init (target / burst) (fun _ ->
      ( Random.State.float rng duration,
        Random.State.int rng n_leaves,
        size,
        burst ))

let fnv_prime = 0x100000001b3L
let fold_hash h v = Int64.mul (Int64.logxor h v) fnv_prime

let hash_depart h pkt ~leaf t =
  let open Net.Packet in
  let x = fold_hash h (Int64.of_int (Hashtbl.hash leaf)) in
  let x = fold_hash x (Int64.of_int pkt.seq) in
  fold_hash x (Int64.bits_of_float t)

let run_flat ~spec ~program =
  let sim = Engine.Simulator.create () in
  let pkts = ref 0 and hash = ref 0xcbf29ce484222325L in
  let h =
    HF.create ~sim ~spec
      ~on_depart:(fun pkt ~leaf t ->
        incr pkts;
        hash := hash_depart !hash pkt ~leaf t)
      ()
  in
  let ids =
    Array.of_list (List.map (fun (name, _) -> HF.leaf_id h name) (CT.leaves spec))
  in
  List.iter
    (fun (at, leaf, size_bits, count) ->
      ignore
        (Engine.Simulator.schedule sim ~at (fun () ->
             HF.inject_many h ~leaf:ids.(leaf) ~size_bits ~count)))
    program;
  let t0 = Unix.gettimeofday () in
  Engine.Simulator.run sim;
  (Unix.gettimeofday () -. t0, !pkts, !hash)

let run_cell ~spec ~program ~shards ~epoch =
  let sim = Engine.Simulator.create () in
  let pkts = ref 0 and hash = ref 0xcbf29ce484222325L in
  let t =
    HF.create ~sim ~spec ~shards ~epoch
      ~on_depart:(fun pkt ~leaf t ->
        incr pkts;
        hash := hash_depart !hash pkt ~leaf t)
      ()
  in
  let ids =
    Array.of_list (List.map (fun (name, _) -> HF.leaf_id t name) (CT.leaves spec))
  in
  List.iter
    (fun (at, leaf, size_bits, count) ->
      ignore
        (Engine.Simulator.schedule sim ~at (fun () ->
             HF.inject_many t ~leaf:ids.(leaf) ~size_bits ~count)))
    program;
  let t0 = Unix.gettimeofday () in
  Engine.Simulator.run sim;
  (Unix.gettimeofday () -. t0, !pkts, !hash)

let measure ?(quick = false) () =
  let cores = Parallel.Pool.cores () in
  let spec = spec () in
  let program = program ~quick in
  let flat_wall, flat_pkts, flat_hash = run_flat ~spec ~program in
  let flat_pps = float_of_int flat_pkts /. flat_wall in
  let rows =
    List.concat_map
      (fun shards ->
        List.map
          (fun epoch ->
            let wall, pkts, hash = run_cell ~spec ~program ~shards ~epoch in
            if epoch = 1 && hash <> flat_hash then
              failwith
                (Printf.sprintf
                   "Hiershard_bench: shards=%d epoch=1 departure hash %s \
                    diverged from the Hier_flat reference %s — the exactness \
                    contract is broken"
                   shards
                   (Shard.Device.hash_hex hash)
                   (Shard.Device.hash_hex flat_hash));
            let pps = float_of_int pkts /. wall in
            {
              shards;
              epoch;
              wall_s = wall;
              pkts;
              pkts_per_sec = pps;
              ratio_vs_flat = pps /. flat_pps;
              depart_hash = hash;
              exact = epoch = 1;
            })
          (epoch_ladder ()))
      (shards_ladder ())
  in
  (* the epoch alone fixes the schedule: one hash per epoch, whatever the
     shard count *)
  List.iter
    (fun r ->
      let first = List.find (fun f -> f.epoch = r.epoch) rows in
      if r.depart_hash <> first.depart_hash then
        failwith
          (Printf.sprintf
             "Hiershard_bench: epoch=%d hash %s at %d shards but %s at %d shards"
             r.epoch
             (Shard.Device.hash_hex r.depart_hash)
             r.shards
             (Shard.Device.hash_hex first.depart_hash)
             first.shards))
    rows;
  (cores, flat_pps, Shard.Device.hash_hex flat_hash, rows)

(* -- JSON report --------------------------------------------------------- *)

let json_of_run ~quick ~cores ~flat_pps ~flat_hash rows =
  let row_json r =
    Json.Obj
      [
        ("shards", Json.Num (float_of_int r.shards));
        ("epoch", Json.Num (float_of_int r.epoch));
        ("wall_s", Json.Num r.wall_s);
        ("pkts", Json.Num (float_of_int r.pkts));
        ("pkts_per_sec", Json.Num r.pkts_per_sec);
        ("ratio_vs_flat", Json.Num r.ratio_vs_flat);
        ("depart_hash", Json.Str (Shard.Device.hash_hex r.depart_hash));
        ("exact", Json.Bool r.exact);
      ]
  in
  let headline =
    let best =
      List.fold_left
        (fun acc r ->
          match acc with
          | Some b when b.ratio_vs_flat >= r.ratio_vs_flat -> acc
          | _ -> Some r)
        None
        (List.filter (fun r -> r.epoch > 1) rows)
    in
    match best with
    | Some r ->
      Json.Obj
        [
          ( "workload",
            Json.Str (Printf.sprintf "hiershard_s%d_e%d" r.shards r.epoch) );
          ("pkts_per_sec", Json.Num r.pkts_per_sec);
          ("ratio_vs_flat", Json.Num r.ratio_vs_flat);
          ("cores", Json.Num (float_of_int cores));
        ]
    | None -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-hiershard-v1");
      ("bench", Json.Str "hiershard");
      ("quick", Json.Bool quick);
      ("cores", Json.Num (float_of_int cores));
      ( "workload",
        Json.Str
          (Printf.sprintf "one_tree_%dx%d_overload1.5" root_children
             leaves_per_child) );
      ("flat_pkts_per_sec", Json.Num flat_pps);
      ("flat_depart_hash", Json.Str flat_hash);
      ("headline", headline);
      ("rows", Json.Arr (List.map row_json rows));
    ]

let report ~quick =
  let cores, flat_pps, flat_hash, rows = measure ~quick () in
  Printf.printf "cores=%d, Hier_flat reference %.0f pkts/s, hash %s\n" cores
    flat_pps flat_hash;
  Printf.printf "%7s %6s %12s %14s %8s %6s  %s\n" "shards" "epoch" "wall (s)"
    "pkts/s" "ratio" "exact" "depart_hash";
  List.iter
    (fun r ->
      Printf.printf "%7d %6d %12.3f %14.0f %7.2fx %6b  %s\n" r.shards r.epoch
        r.wall_s r.pkts_per_sec r.ratio_vs_flat r.exact
        (Shard.Device.hash_hex r.depart_hash))
    rows;
  json_of_run ~quick ~cores ~flat_pps ~flat_hash rows

(* Exactness is checked inside [measure]; every cell runs on one core, so
   the throughput floor applies to every row on every host. *)
let probe ~quick =
  let _, _, _, rows = measure ~quick () in
  Json.Obj
    [
      ( "rows",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ( "label",
                     Json.Str (Printf.sprintf "shards=%d epoch=%d" r.shards r.epoch) );
                   ("value", Json.Num r.ratio_vs_flat);
                   ("expected", Json.Num 1.0);
                   ("enforced", Json.Bool true);
                 ])
             rows) );
    ]
