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
   - *throughput*: every rung, as same-run pairs against the sequential
     reference, should stay near it (the root sync is the sequential
     section, so this is a no-regression floor, not a linear speedup
     curve). *)

module Json = Bench_kit.Json
module Suite = Bench_kit.Suite
module HF = Hpfq.Hier_flat
module CT = Hpfq.Class_tree

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

(* One run of the program: the sequential Hier_flat reference without
   [shards]/[epoch], the epoch layer with them. *)
let run ?shards ?epoch ~spec ~program () =
  let sim = Engine.Simulator.create () in
  let pkts = ref 0 and hash = ref 0xcbf29ce484222325L in
  let t =
    HF.create ~sim ~spec ?shards ?epoch
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

(* The exactness contract, checked on every run: an epoch = 1 run
   departs exactly as the flat reference, and the epoch alone fixes the
   schedule, whatever the shard count ([seen] maps an epoch to the first
   hash and shard count it produced). *)
let check_hash ~flat_hash ~seen ~shards ~epoch hash =
  if epoch = 1 && hash <> flat_hash then
    failwith
      (Printf.sprintf
         "Hiershard_bench: shards=%d epoch=1 departure hash %s diverged from the \
          Hier_flat reference %s — the exactness contract is broken"
         shards (Shard.Device.hash_hex hash) (Shard.Device.hash_hex flat_hash));
  match Hashtbl.find_opt seen epoch with
  | None -> Hashtbl.replace seen epoch (hash, shards)
  | Some (first, _) when first = hash -> ()
  | Some (first, first_shards) ->
    failwith
      (Printf.sprintf "Hiershard_bench: epoch=%d hash %s at %d shards but %s at %d shards"
         epoch (Shard.Device.hash_hex hash) shards (Shard.Device.hash_hex first)
         first_shards)

(* Each cell's rate over the flat reference's, as same-run pairs, every
   run held to the exactness contract (the reference counts as an
   epoch-1 run on 0 shards). Returns the flat hash, the first hash of
   each epoch, and the cell function. *)
let cells ~quick =
  let spec = spec () and program = program ~quick in
  let _, _, flat_hash = run ~spec ~program () in
  let seen = Hashtbl.create 3 in
  let rate ?shards ?epoch () =
    let wall, pkts, hash = run ?shards ?epoch ~spec ~program () in
    check_hash ~flat_hash ~seen ~shards:(Option.value shards ~default:0)
      ~epoch:(Option.value epoch ~default:1) hash;
    float_of_int pkts /. wall
  in
  ( flat_hash,
    seen,
    fun ~shards ~epoch -> Suite.pairs ~num:(rate ~shards ~epoch) ~den:(fun () -> rate ()) () )

let grid () =
  List.concat_map
    (fun shards -> List.map (fun epoch -> (shards, epoch)) (epoch_ladder ()))
    (shards_ladder ())

let report ~quick =
  let cores = Parallel.Pool.cores () in
  let flat_hash, seen, cell = cells ~quick in
  Printf.printf "cores=%d, Hier_flat reference hash %s\n" cores
    (Shard.Device.hash_hex flat_hash);
  Printf.printf "%7s %6s %8s %6s  %s\n" "shards" "epoch" "ratio" "exact" "depart_hash";
  let rows =
    List.map
      (fun (shards, epoch) ->
        let pairs = cell ~shards ~epoch in
        let hash = Shard.Device.hash_hex (fst (Hashtbl.find seen epoch)) in
        Printf.printf "%7d %6d %7.2fx %6b  %s\n" shards epoch (Suite.ratio pairs) (epoch = 1)
          hash;
        Json.Obj
          [
            ("shards", Json.Num (float_of_int shards));
            ("epoch", Json.Num (float_of_int epoch));
            ("ratio_vs_flat", Json.Num (Suite.ratio pairs));
            ("depart_hash", Json.Str hash);
            ("exact", Json.Bool (epoch = 1));
            ("pkts_per_sec", pairs);
          ])
      (grid ())
  in
  Json.Obj
    [
      ("schema", Json.Str "hpfq-bench-hiershard-v2");
      ("bench", Json.Str "hiershard");
      ("quick", Json.Bool quick);
      ("cores", Json.Num (float_of_int cores));
      ( "workload",
        Json.Str
          (Printf.sprintf "one_tree_%dx%d_overload1.5" root_children leaves_per_child) );
      ("flat_depart_hash", Json.Str (Shard.Device.hash_hex flat_hash));
      ("rows", Json.Arr rows);
    ]

(* Every cell runs on one core, so the throughput floor applies to every
   row on every host. *)
let probe ~quick =
  let _, _, cell = cells ~quick in
  Json.Obj
    [
      ( "rows",
        Json.Arr
          (List.map
             (fun (shards, epoch) ->
               Json.Obj
                 [
                   ("label", Json.Str (Printf.sprintf "shards=%d epoch=%d" shards epoch));
                   ("pairs", cell ~shards ~epoch);
                   ("expected", Json.Num 1.0);
                 ])
             (grid ())) );
    ]
