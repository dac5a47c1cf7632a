(* The epoch engine: [Hpfq.Hier_flat] created with [~epoch] > 1. This is
   the epoch layer's one entry outside the engine's tests. It keeps the
   [~shards] and [~workers] settings and the [shutdown] its callers pass,
   range-checked and otherwise unused: none of them changes the schedule,
   because the engine stages into one buffer and every sync runs on the
   calling domain. *)
include Hpfq.Hier_flat

let create ~sim ~spec ?root_clock ?on_depart ?on_drop ?burst_max ?(shards = 1) ?(workers = 0)
    ?epoch () =
  if shards < 1 then
    invalid_arg (Printf.sprintf "Subtree.create: shards must be >= 1, got %d" shards);
  if workers < 0 || workers > Parallel.Pool.max_jobs then
    invalid_arg
      (Printf.sprintf "Subtree.create: workers must be in 0..%d, got %d"
         Parallel.Pool.max_jobs workers);
  Hpfq.Hier_flat.create ~sim ~spec ?root_clock ?on_depart ?on_drop ?burst_max ?epoch ()

let shutdown : t -> unit = ignore
