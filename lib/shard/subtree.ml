(* The subtree-sharded epoch engine: [Hpfq.Hier_flat] created with [~epoch]
   > 1. This is the epoch layer's one entry outside the engine's tests. It
   keeps the [~workers] setting and the [shutdown] its callers pass: neither
   changes the schedule, because every sync flushes inline on the calling
   domain and no worker Domain is spawned. *)
include Hpfq.Hier_flat

let create ~sim ~spec ?root_clock ?on_depart ?on_drop ?burst_max ?shards ?(workers = 0)
    ?epoch () =
  if workers < 0 || workers > Parallel.Pool.max_jobs then
    invalid_arg
      (Printf.sprintf "Subtree.create: workers must be in 0..%d, got %d"
         Parallel.Pool.max_jobs workers);
  Hpfq.Hier_flat.create ~sim ~spec ?root_clock ?on_depart ?on_drop ?burst_max ?shards
    ?epoch ()

let shutdown : t -> unit = ignore
