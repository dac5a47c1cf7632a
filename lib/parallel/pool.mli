(** Deterministic fork-join work pool over OCaml 5 domains.

    The paper's whole evaluation is a grid of {e independent} simulation
    runs — disciplines × hierarchies × session counts × seeds — and the
    experiment sweeps and bench grids replay that grid. Each grid cell
    builds its own private {!Engine.Simulator}, so the cells can run on
    separate domains; this module is the one fan-out primitive they all
    share.

    {2 Determinism contract}

    Output is {b bit-identical for any worker count}, provided each task
    [f i] is a function of its index alone (and of state captured before
    {!map} is called):

    - tasks are identified by their index [0 .. tasks-1], claimed from a
      single atomic cursor in contiguous chunks (static chunking with a
      work-stealing index — idle workers keep claiming, so an uneven grid
      still balances);
    - results land in a per-index slot; {!map} returns them in task-index
      order and {!map_reduce} folds them in task-index order, regardless
      of which domain finished first;
    - nothing about the pool leaks into the tasks: no shared RNG (derive
      per-task streams with {!Engine.Rng.for_task}), no shared simulator,
      no worker identity.

    A pool is a configuration, not a set of live threads: {!map} spawns
    [min jobs tasks - 1] domains on entry, works the tasks alongside them
    on the calling domain, and joins them before it returns (fork-join),
    so no state persists between calls and a [~jobs:1] pool is exactly
    the sequential loop (no domain is ever spawned). Exceptions from
    tasks cancel the remaining work and are re-raised (first failure
    wins, with its backtrace); the pool stays usable for further calls. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool running at most [jobs] worker domains (including the calling
    one). Defaults to the [HPFQ_JOBS] environment variable if set to a
    positive integer (invalid values warn on stderr), otherwise [1] —
    sweeps are sequential unless asked.
    @raise Invalid_argument if [jobs] is below 1 or above {!max_jobs}. *)

val jobs : t -> int
(** Worker-domain budget this pool was created with. *)

val max_jobs : int
(** The largest [jobs] {!create} accepts (1024): a guard against
    oversubscription typos such as [-j 1e6]. *)

val cores : unit -> int
(** [Domain.recommended_domain_count ()] — the parallelism the host can
    actually deliver; {!map} never spawns more than this many domains
    plus the oversubscription the caller explicitly asked for via
    [jobs]. Recorded in [BENCH_parallel.json] so speedup numbers carry
    their context. *)

val map : t -> tasks:int -> f:(int -> 'a) -> 'a array
(** [map pool ~tasks ~f] computes [[| f 0; f 1; ...; f (tasks-1) |]],
    running tasks on up to [jobs pool] domains. [f] runs at most once per
    index. Re-raises the first task exception after stopping the
    remaining workers (tasks already started still complete their current
    index). *)

val map_reduce :
  t -> tasks:int -> f:(int -> 'a) -> merge:('acc -> 'a -> 'acc) -> init:'acc -> 'acc
(** [map_reduce pool ~tasks ~f ~merge ~init] is
    [Array.fold_left merge init (map pool ~tasks ~f)]: the merge always
    sees results in task-index order, so a non-commutative [merge] is
    safe. *)

val map_list : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map_list pool ~f xs] is [List.map f xs] with the calls fanned out;
    order is preserved. *)

(** {2 Progress}

    Each completed task emits one line on the [hpfq.parallel] {!Logs}
    source at [Info] level, rate-limited to at most one line per 100 ms
    per call (the final task always reports), and serialized by one
    mutex per call. Off by default — [Logs]' default
    reporter and level suppress it; drivers opt in by installing a
    reporter and raising the source's level (see [hpfq_sim --progress]). *)

val log_src : Logs.src
