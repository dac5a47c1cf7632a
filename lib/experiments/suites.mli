(** The bench-suite registry: each suite's report paths, guards and
    bounds (see {!Bench_kit.Suite}). [bench/main.exe] derives its
    [<name>], [<name>-quick] and [<name>-guard] ids and its [check] run
    from {!all}. *)

val all : Bench_kit.Suite.t list
(** events, hier, replay, churn, parallel, shard, hiershard — in
    [check] order. *)
