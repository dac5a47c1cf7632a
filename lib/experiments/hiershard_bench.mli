(** Subtree-sharded hierarchy suite (bench id "hiershard").

    Runs ONE wide H-WF²Q+ hierarchy — 16 root-child subtrees of 4 leaves
    — through {!Hpfq.Hier_flat}'s epoch layer across a shards × epoch
    grid under an overloaded burst workload, against the sequential
    engine ([epoch = 1]) as reference. Two contracts are binding on every
    host, even single-core: every [epoch = 1] rung's departure hash must
    equal the flat reference's, and every [epoch > 1] rung must be
    worker-count invariant (the same cell re-run with inline flushes must hash
    identically) — {!measure} raises [Failure] on either divergence.

    Results go to [BENCH_hiershard.json]; {!guard} re-measures and holds
    every rung whose coordinator + workers fit the host's cores to a
    no-regression throughput floor vs the flat reference, loosened by
    [HPFQ_HIERSHARD_TOL] (default 0.35). The root sync is the sequential
    section, so the floor is "sharding must not cost more than the
    tolerance", not a linear speedup curve. *)

type row = {
  shards : int;
  epoch : int;
  workers : int;  (** 0 at [epoch = 1]; min(shards, cores-1) otherwise *)
  wall_s : float;
  pkts : int;
  pkts_per_sec : float;
  ratio_vs_flat : float;  (** pkts_per_sec / the Hier_flat reference's *)
  depart_hash : int64;
  exact : bool;  (** [epoch = 1]: hash checked equal to the reference *)
}

val shards_ladder : unit -> int list
(** [[1; 4; 16]] — 16 is one shard per root child. *)

val epoch_ladder : unit -> int list
(** [[1; 8; 64]]. *)

val measure : ?quick:bool -> unit -> int * float * string * row list
(** [(cores, flat_pkts_per_sec, flat_depart_hash_hex, rows)]. Raises
    [Failure] if any epoch = 1 rung diverges from the flat reference or
    any epoch > 1 rung is not worker-invariant. *)

val validate : Bench_kit.Json.t -> (unit, string list) result
(** Schema check for an emitted/committed report: [Error missing_keys]. *)

val run : ?quick:bool -> ?out:string -> unit -> row list
(** Print the table, write the JSON report to [out] (default
    [BENCH_hiershard.json]), validate its schema. *)

type guard_row = {
  g_shards : int;
  g_epoch : int;
  g_workers : int;
  g_ratio : float;
  g_floor : float;  (** [1 - tol] *)
  g_enforced : bool;  (** coordinator + workers fit the host's cores *)
  g_ok : bool;
}

type guard_result = {
  g_cores : int;
  g_tol : float;
  g_rows : guard_row list;
  g_within : bool;
}

val guard :
  ?baseline:string -> ?tol:float -> ?quick:bool -> unit -> (guard_result, string) result
(** Re-measure (quick by default on hosts with fewer than 2 cores, where
    only the exactness half is meaningful) and hold every within-budget
    rung to the no-regression floor. The committed baseline must exist
    and parse so a PR cannot silently drop the report; the hash contracts
    are enforced by [measure] itself regardless of the baseline. *)
