(** Wiring layer: attach a recorder + metrics to a whole scheduling system.

    {!attach_engine} installs one {!Sched.Sched_intf.observer} per interior
    node of an H-PFQ server on any {!Hpfq.Hier_engine} engine and hooks
    the link-level callbacks (transmit-start / depart / drop), so a single
    trace sees every scheduler operation of every node, stamped with that
    node's virtual time, interleaved with the physical packet lifecycle on
    the shared real time axis. {!attach_server} does the same for a
    standalone one-level {!Hpfq.Server}. Metrics are updated live; events accumulate in the
    {!Recorder} ring and are exported on demand.

    Tracing is opt-in per system: nothing here is invoked unless an attach
    function was called, and {!detach} removes the installed observers
    (restoring the exact untraced scheduler hot path; link hooks remain but
    fire into nothing once drained). *)

type t

val attach_engine : ?capacity:int -> ?on_full:Recorder.on_full -> Hpfq.Hier_engine.t -> t
(** Instrument every interior node and the link of a hierarchy, on any
    engine. [capacity]/[on_full] size the event ring (defaults 65536
    events, [Drop_oldest]). Node ids in recorded events are the
    hierarchy's node ids; link events carry the packet's leaf id. Event
    streams from the generic and flat engines on the same workload are
    identical (the lockstep tests rely on this). Session labels resolve
    through the tree's slot map at creation ({!Hpfq.Hier_tree}).
    @raise Invalid_argument on a flat engine at [epoch > 1], from
    {!Hpfq.Hier_flat.set_node_observer_id}. *)

val attach_server :
  ?capacity:int ->
  ?on_full:Recorder.on_full ->
  ?name:string ->
  ?session_names:string array ->
  Hpfq.Server.t ->
  t
(** Instrument a standalone server. Call after every session is open: node 0
    is the server itself and node [1 + i] stands for session [i] (the
    "leaf" its link events belong to). [session_names.(i)] labels session
    [i]; defaults to ["s<i>"]. *)

val attach_sim : t -> Engine.Simulator.t -> unit
(** Additionally count event-loop activity (schedules / fires / cancels)
    via the simulator probe. *)

val of_sims : Engine.Simulator.t list -> t
(** A reporting-only trace over existing simulators: installs no
    observers and no probes, just registers the simulators (in list
    order) so {!sim_report} can render their merged occupancy table —
    per-sim stats rows plus the aggregate totals. The shard device uses
    this to merge hundreds of per-link simulators into one report. *)

val sim_counters : t -> int * int * int
(** [(scheduled, fired, cancelled)] since {!attach_sim}. *)

val sim_report : ?name:string -> t -> Stats.Report.t
(** Event-loop activity as a [metric,value] table: the probe counters
    plus, per attached simulator, a live {!Engine.Simulator.stats}
    snapshot (pending, cancelled-in-structure, capacities,
    compactions, resizes). With more than one simulator attached (via
    {!attach_sim} or {!of_sims}), per-sim keys beyond the first carry a
    [#i] suffix and aggregate [<key>/total] rows are appended. Rows are
    computed when the report is written, so take the snapshot at the
    moment of interest. *)

val detach : t -> unit
(** Remove every installed observer and probe. Recorded events and metrics
    remain readable. *)

val recorder : t -> Recorder.t
val metrics : t -> Metrics.t

val names : t -> Sink.names
(** Label functions resolving this system's node/session ids. *)

val events : t -> Event.t list
(** Snapshot of the ring, oldest first. *)

val drain : t -> Sink.t -> unit
(** {!Recorder.drain} with this trace's recorder: emit, flush, clear. *)

val write_jsonl : t -> path:string -> unit
(** Dump the retained events as JSON-lines (ring is kept, not cleared). *)

val write_csv : t -> path:string -> unit

val events_report : ?name:string -> t -> Stats.Report.t
(** The retained events as the shared {!Stats.Report} table shape
    (columns {!Sink.csv_header}). *)

val metrics_report : ?name:string -> t -> Stats.Report.t
