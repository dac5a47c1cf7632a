(** Deterministic pseudo-random streams (SplitMix64).

    Every stochastic workload in the repository draws from one of these so
    experiments are exactly reproducible from a seed. [split] derives an
    independent stream, letting each traffic source own its own generator
    without cross-contamination when sources are added or reordered. *)

type t

val create : int64 -> t
(** Seeded generator. The same seed always yields the same stream. *)

val split : t -> t
(** Derive an independent child stream (advances the parent). *)

val for_task : t -> int -> t
(** [for_task t i] is the stable child stream for task index [i]: a pure
    function of [t]'s current position and [i] that does {e not} advance
    [t]. Unlike {!split}, deriving children in any order — or from any
    worker domain — yields the same streams, which is what makes parallel
    sweeps bit-identical to sequential ones. Children for distinct
    indices are pairwise independent (SplitMix64 double-mix off the
    golden-gamma lattice).
    @raise Invalid_argument if [i < 0]. *)

val mix64 : int64 -> int64
(** The raw SplitMix64 finalizer: a stateless avalanche permutation of
    the full 64-bit space. Exposed for deterministic hashing jobs that
    must agree across processes and worker counts — e.g. the device's
    flow table and departure-trace fingerprints — where
    [Hashtbl.hash]'s truncation and version sensitivity would not do. *)

val next_int64 : t -> int64
val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (Poisson inter-arrivals). *)

val bool : t -> bool
