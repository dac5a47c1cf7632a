(** Multi-port scheduling device: N independent output links, each its own
    H-WF²Q+ instance on a private simulator, replayed in parallel over
    worker domains.

    The paper defines H-WF²Q+ per output link; a device schedules hundreds
    of them at once. Here every link is one {!Hpfq.Hier_engine} (flat by
    default) with its own {!Engine.Simulator}. The stable {!Flow_table}
    wires each flow to one link and one leaf, and each flow draws its
    bursts from its own {!Engine.Rng.for_task} stream, so no link depends
    on another: {!run} is a fork-join {!Parallel.Pool.map} over the links,
    each task replaying one link's arrivals round by round to the end of
    its run.

    {2 Determinism contract}

    A link's simulation consumes {e only} its own flows' streams and its
    own private simulator, so each link's departure trace (packet ids,
    sequence numbers, departure stamps, drops) is a function of [(seed,
    workload, links, spec)] alone — bit-identical for any worker count,
    and bit-identical to {!run_link_reference}, the same replay of that
    one link in the calling domain. The lockstep tests hold {!run} to
    exactly that. *)

type workload = {
  flows_per_link : int;  (** flow population = [flows_per_link * links] *)
  rounds : int;  (** arrival rounds; every flow draws one burst per round *)
  burst_max : int;
      (** per flow per round, a uniform draw in [0 .. burst_max] packets *)
  packet_bits : float;
  overload : float;
      (** offered / capacity ratio per link; > 1 exercises queue caps and
          drops, < 1 leaves links idle between rounds *)
  seed : int64;
}

val default_workload : rounds:int -> workload
(** 4 flows per link, bursts up to 8 packets, 1 KB packets, 1.2x
    overload, seed 1. *)

type t
(** An immutable device configuration; {!run} builds all mutable state
    afresh, so one [t] can be run many times (and concurrently with
    itself only if you enjoy wall-clock noise — state is never shared). *)

val create :
  ?workers:int ->
  ?engine:Hpfq.Hier_engine.choice ->
  ?spec:Hpfq.Class_tree.t ->
  ?queue_cap_pkts:int ->
  ?workload:workload ->
  ?record_traces:bool ->
  ?observe:bool ->
  links:int ->
  unit ->
  t
(** [workers] (default 1) is the {!Parallel.Pool} job count the links
    are spread over. [spec] is the per-link class tree (default: a
    4-leaf two-level tree at 1 Gbps with every leaf queue capped at
    [queue_cap_pkts] packets — a user-supplied [spec] is taken as-is).
    [record_traces] keeps full per-link departure traces (tests);
    [observe] attaches a per-link {!Obs.Trace} and keeps its metrics.
    @raise Invalid_argument on nonsensical geometry or workload (a NaN
    or infinite [overload] included, and [workers] outside
    [1 .. Parallel.Pool.max_jobs]). *)

val links : t -> int
val workers : t -> int
val spec : t -> Hpfq.Class_tree.t
val workload : t -> workload

type link_result = {
  link : int;
  departed_pkts : int;
  departed_bits : float;
  drops : int;
  events : int;  (** simulator events processed *)
  final_time : float;  (** simulator clock after draining *)
  trace_hash : int64;
      (** order-sensitive fingerprint of (leaf number, seq, stamp) departures —
          always computed, so cheap cross-worker-count comparison needs
          no [record_traces] *)
  trace : (int * int * float) array option;
      (** [(leaf number, per-flow seq, departure stamp)] when
          [record_traces]; a leaf's number is its position in
          {!Hpfq.Class_tree.leaves} counted from 1, whatever the node ids *)
  sim : Engine.Simulator.t;  (** the link's (drained) simulator *)
  stats : Engine.Simulator.stats;
  metrics : Stats.Report.t option;  (** per-node counters when [observe] *)
}

type result = {
  per_link : link_result array;  (** indexed by link id *)
  wall_s : float;
  total_pkts : int;
  total_bits : float;
  total_drops : int;
  total_events : int;
  device_hash : int64;  (** fold of the per-link trace hashes, link order *)
}

val run : t -> result
(** Replay every link ({!Parallel.Pool.map} over the links at [workers]
    jobs), then aggregate. The first exception a link's replay raises
    re-raises here, after every domain has been joined. *)

val run_link_reference : t -> link:int -> link_result
(** One link on its own: replay link [link] of the same configured
    workload in the calling domain, with no pool — the replay each of
    {!run}'s tasks performs. Equal to [run t].per_link.(link) field for
    field (modulo [sim] and [metrics] identity) for every worker count.
    @raise Invalid_argument if [link] is out of range. *)

val report : result -> Stats.Report.t
(** Per-link rows (link, pkts, bits, drops, events, final time, trace
    hash) plus a device-total row. *)

val sim_report : result -> Stats.Report.t
(** The merged event-set/occupancy table: {!Obs.Trace.sim_report} over
    every link's simulator (per-link rows + aggregate totals). *)

val metrics_report : result -> Stats.Report.t option
(** When the device ran with [observe]: every link's per-node {!Obs.Metrics}
    rows prefixed with the link id, plus a device-total row. [None]
    otherwise. *)

val hash_hex : int64 -> string
(** Render a trace/device hash the way the reports and JSON do. *)
