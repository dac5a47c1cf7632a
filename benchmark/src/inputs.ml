(* Workload inputs. Each is a pure function of the seed (and of the
   sizes), so both commits of an A/B see identical inputs; the test suite
   checks this. Each input draws from its own stream of the seed, so
   resizing one workload never shifts another's inputs.

   Every input is laid over a complete class tree, and the seed relabels
   its leaves with a random symmetry of that tree. A symmetry keeps every
   node's load, so the seed changes which leaf carries which traffic (and
   with it the scheduler's tie-breaks, memory layout and departure hash)
   while the delay percentiles barely move from seed to seed. That is
   what lets the delay metrics carry a tight bound over a set of seeds:
   drawn freely, imix_replay's delay tail moved 7% from seed to seed. *)

let stream ~seed ~salt = Engine.Rng.for_task (Engine.Rng.create (Int64.of_int seed)) salt

(* The seed whose streams draw the shape of the overload bursts and of
   the internet-mix trace, before the run's seed relabels them. *)
let shape_seed = 0

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Engine.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let leaf_count fanouts = List.fold_left ( * ) 1 fanouts

(* A random symmetry of the complete tree with [fanouts] children per
   level, top level first: the children of every node are shuffled. Maps
   each leaf's left-to-right index to the index of its image. *)
let symmetry rng fanouts =
  let image = Array.make (leaf_count fanouts) 0 in
  let rec place fanouts ~src ~dst size =
    match fanouts with
    | [] -> image.(src) <- dst
    | f :: rest ->
      let k = size / f in
      let order = Array.init f Fun.id in
      shuffle rng order;
      Array.iteri (fun c o -> place rest ~src:(src + (c * k)) ~dst:(dst + (o * k)) k) order
  in
  place fanouts ~src:0 ~dst:0 (Array.length image);
  image

(* Leaf index of the [i]-th item dealt round-robin over the tree: item i
   goes to top-level child i mod f1, and so on down the levels. *)
let deal fanouts i =
  snd (List.fold_left (fun (i, pos) f -> (i / f, (pos * f) + (i mod f))) (i, 0) fanouts)

(* Leaf weights, log-uniform over [1,16]. Stratified: weight i is drawn
   inside the i-th of n equal slices of the log range, and the slices are
   dealt round-robin over the tree, so every subtree gets an even sample
   of the range. The seed moves each weight within its slice and, through
   a symmetry, which leaf gets it. *)
let weights ~seed fanouts =
  let rng = stream ~seed ~salt:1 in
  let n = leaf_count fanouts in
  let image = symmetry rng fanouts in
  let w = Array.make n 0.0 in
  for i = 0 to n - 1 do
    w.(image.(deal fanouts i)) <- 16.0 ** ((float_of_int i +. Engine.Rng.uniform rng) /. float_of_int n)
  done;
  w

let imix_duration = 1.0

let imix_leaves ~fanout =
  List.map fst
    (Hpfq.Class_tree.leaves
       (Bench_kit.Perf.uniform_spec ~depth:2 ~fanout ~name:"root" ~rate:1.0))

(* An internet-mix trace of fixed shape over [leaves], the leaves of the
   complete tree [fanouts] in left-to-right order; the seed relabels it
   with a symmetry of that tree. *)
let imix_trace ~seed ~fanouts ~leaves ~mean_pkts =
  let names = Array.of_list leaves in
  let image = symmetry (stream ~seed ~salt:2) fanouts in
  let relabel = Hashtbl.create (Array.length names) in
  Array.iteri (fun i leaf -> Hashtbl.replace relabel leaf names.(image.(i))) names;
  List.map
    (fun (ev : Traffic.Trace.event) -> { ev with leaf = Hashtbl.find relabel ev.leaf })
    (Traffic.Trace.internet_mix
       ~seed:(Engine.Rng.next_int64 (stream ~seed:shape_seed ~salt:2))
       ~leaves ~duration:imix_duration ~mean_pkts_per_leaf:mean_pkts ())

(* Overload arrivals over the complete tree [fanouts]: burst start times
   uniform over the round's horizon, each burst on a uniformly drawn leaf;
   the seed relabels the leaves with a symmetry of the tree. *)
type bursts = { at : float array; leaf : int array }

let bursts ~seed ~fanouts ~count ~horizon =
  let shape = stream ~seed:shape_seed ~salt:3 in
  let image = symmetry (stream ~seed ~salt:3) fanouts in
  let at = Array.make count 0.0 and leaf = Array.make count 0 in
  for b = 0 to count - 1 do
    at.(b) <- Engine.Rng.float shape horizon;
    leaf.(b) <- image.(Engine.Rng.int shape (Array.length image))
  done;
  { at; leaf }
