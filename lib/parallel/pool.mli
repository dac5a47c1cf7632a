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
    its domains on entry and joins them before it returns (fork-join), so
    no state persists between calls and a [~jobs:1] pool is exactly the
    sequential loop (no domain is ever spawned). Exceptions from tasks
    cancel the remaining work and are re-raised (first failure wins, with
    its backtrace).

    When the per-call spawn/join is the wrong shape — long-lived shard
    workers, a sweep issued round after round — use {!Persistent}, which
    spawns its domains once and feeds them rounds; {!map} is itself a
    one-round persistent pool, so both surfaces share one execution core
    and one determinism contract. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool running at most [jobs] worker domains (including the calling
    one). Defaults to {!default_jobs}[ ()].
    @raise Invalid_argument if [jobs] is below 1 or above {!max_jobs}. *)

val jobs : t -> int
(** Worker-domain budget this pool was created with. *)

val max_jobs : int
(** The largest [jobs] {!create} accepts (1024): a guard against
    oversubscription typos such as [-j 1e6]. *)

val default_jobs : unit -> int
(** The process default: the [HPFQ_JOBS] environment variable if set to a
    positive integer (invalid values warn on stderr), otherwise [1] —
    sweeps are sequential unless asked. *)

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

(** {2 Persistent pools}

    Spawn once, submit many rounds. A round is the same unit {!map}
    executes — [tasks] indices claimed off one atomic cursor, results in
    per-index slots, first failure wins — but the worker domains outlive
    it, so consecutive rounds pay no spawn/join latency, and a round can
    be {e submitted} without the caller participating: the caller stays
    free to run its own stage (e.g. a shard router feeding mailboxes)
    concurrently with the workers, then collect at {!Persistent.await}.

    A caller with nothing else to do should use {!Persistent.map}, which
    works the round too: [submit] + [await] makes the caller wait out a
    full Mutex + Condition handoff to a sleeping worker. An empty round of
    4 no-op tasks at 1 worker costs about 16 µs that way and about 1 µs
    through [map] (release, 2-vCPU host; [bench parallel] prints both).
    Either is still more than a handful of short tasks is worth: run
    those inline.

    At most one round may be outstanding per pool at a time ({!Persistent.submit}
    before the previous {!Persistent.await} is an [Invalid_argument]) —
    the generation protocol guarantees a worker executes each round at
    most once, and replacement only after the previous round fully
    settled. Pools left un-{!Persistent.shutdown} are closed by an
    [at_exit] hook so leaked worker domains cannot wedge process exit. *)

module Persistent : sig
  type t

  type 'a round
  (** A submitted, not-yet-awaited round producing ['a] results. *)

  val create : ?domains:int -> unit -> t
  (** Spawn [domains] worker domains (default [cores () - 1]; [0] is
      legal and makes {!map} the sequential loop).
      @raise Invalid_argument if [domains] is negative or absurd. *)

  val domains : t -> int
  (** Live worker domains ([0] after {!shutdown}). *)

  val submit : t -> tasks:int -> f:(int -> 'a) -> 'a round
  (** Publish a round to the worker domains and return immediately; the
      caller does not execute tasks. Requires [domains t >= 1] when
      [tasks > 0] (otherwise nothing would ever run it — use {!map}).
      @raise Invalid_argument on negative [tasks], a shut-down pool, or
      an already-outstanding round. *)

  val await : 'a round -> 'a array
  (** Block until every index of the round is computed (or one failed),
      then return results in task-index order, re-raising the first task
      exception if any. The await is the happens-before edge: results
      written by worker domains are safe to read after it. *)

  val map : t -> tasks:int -> f:(int -> 'a) -> 'a array
  (** Submit + participate + await: the calling domain claims chunks
      alongside the workers. Same contract as the top-level {!map}. *)

  val shutdown : t -> unit
  (** Close the pool and join its domains. Idempotent. Must not be
      called with a round outstanding (the round would never finish).
      Subsequent {!submit}/{!map} raise [Invalid_argument]. *)
end

(** {2 Progress}

    Each completed task emits one line on the [hpfq.parallel] {!Logs}
    source at [Info] level, rate-limited to at most one line per 100 ms
    per round (the final task always reports), and serialized by one
    mutex per pool. Off by default — [Logs]' default
    reporter and level suppress it; drivers opt in by installing a
    reporter and raising the source's level (see [hpfq_sim --progress]). *)

val log_src : Logs.src
