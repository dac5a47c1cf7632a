(** Arrival-trace capture and replay.

    A trace is a time-ordered list of (time, leaf, size) arrival events —
    the portable form of a workload. Traces let experiments be driven by
    captured production traffic (or by another simulator's output) instead
    of synthetic sources, and make any stochastic run replayable
    bit-for-bit without its generator.

    Two on-disk formats:
    - CSV ([time,leaf,size_bits] per line), human-readable and friendly to
      external tools. Floats are written with [%.17g], so save → load →
      save is byte-stable.
    - Binary v2 (magic ["HPFQTRC2"]): a leaf-name table followed by flat
      20-byte fixed records (f64 time, u32 leaf index, f64 size, all
      little-endian) — compact and seekable for million-packet replay
      workloads. Bit-exact round-trip by construction. *)

type event = { time : float; leaf : string; size_bits : float }

val save : path:string -> event list -> unit
(** Write CSV. Events need not be sorted; they are written in time order. *)

val load : path:string -> event list
(** Read CSV.
    @raise Failure on malformed input: an empty file (no header), a bad
    header, a line without exactly three fields, or a time or size that is
    not a number or is negative, infinite or NaN. The message names the
    file, the line number and the offending field. *)

val save_binary : path:string -> event list -> unit
(** Write the binary v2 format. Events need not be sorted; they are
    written in time order. *)

val load_binary : path:string -> event list
(** Read the binary v2 format, front to back into the returned list.
    @raise Failure on bad magic, a leaf table or leaf name cut short, a
    record section whose length does not match its count, an out-of-range
    leaf reference, or a time or size that is negative, infinite or NaN.
    The message names the file and the leaf or record index. Every length
    is checked against the file before it is read, so no other exception
    escapes on a corrupt file. *)

val load_any : path:string -> event list
(** Sniff the first 8 bytes: binary v2 if they match its magic, CSV
    otherwise. Malformed input raises the chosen loader's [Failure]. *)

val internet_mix :
  seed:int64 ->
  leaves:string list ->
  duration:float ->
  ?mean_pkts_per_leaf:float ->
  unit ->
  event list
(** Synthetic "internet mix" workload over the given leaves: every leaf is
    an independent flow (stable per-index {!Engine.Rng.for_task} streams,
    so the trace is a pure function of [seed]), 60% Poisson background and
    40% on/off bursts (exponential ON/OFF periods, ~4x intensity inside
    bursts), with bimodal heavy-tailed sizes — a 30% spike of 320-bit acks
    over a bounded-Pareto body (alpha 1.2, 320..12000 bits).
    [mean_pkts_per_leaf] (default 64) sets the expected packets per leaf
    over [duration]. Returns the events in time order. *)

val recorder :
  sim:Engine.Simulator.t ->
  (leaf:string -> Source.emit -> Source.emit) * (unit -> event list)
(** [let wrap, dump = recorder ~sim in ...] — [wrap ~leaf emit] is an emit
    that records (simulation time, leaf, size) before forwarding to [emit].
    [dump ()] returns the events recorded so far in time order. Intended
    use: interpose on each leaf's emit, run, dump, {!save}. *)

val replay :
  ?batched:bool ->
  sim:Engine.Simulator.t ->
  emit_for:(leaf:string -> Source.emit option) ->
  event list ->
  int
(** Replay the trace into [sim]; events whose leaf has no emit are
    skipped. [emit_for] is called once per distinct leaf, at install, in
    order of the leaf's first appearance in the list (so a leaf without
    an emit is asked once too). Returns the number of arrivals installed.

    The arrivals fire exactly as if each had been {!Engine.Simulator.schedule}d
    now, in list order: by time, list order breaking ties, before any
    event scheduled later at the same instant and after any scheduled
    earlier. They are installed as one {!Engine.Simulator.stream} whose
    cursors walk the caller's list (an unsorted list is replaced by its
    kept events, stable-sorted by time, once), so the simulator holds
    O(1) of them pending and firing one allocates nothing. The list is
    the replay's only per-arrival state: install adds one 32-bit emit
    index per event (4 bytes) and one table entry per distinct leaf.
    Install costs per event one [String.hash] of the leaf name and a
    probe of a flat table at most half full, which compares names by
    [==] before [String.equal] ({!load_binary} shares one string per
    leaf, so its events compare no bytes), plus the emit index; an
    unsorted list pays it again to filter and to index its sorted copy.
    The cursors hold only the list's unreplayed tail, so a caller that
    drops its own reference lets the replayed part be collected.

    With [batched] (default false), each run of equal-time events is one
    activation that applies its arrivals back to back — fewer event-set
    operations. No other event can fire between equal-time arrivals
    either way, so the outcome is identical unless an arrival's own
    handler reads [peek_time], which then sees past the run.
    @raise Invalid_argument if the time of an event with an emit is NaN,
    infinite or before [Simulator.now sim]; nothing is installed then.
    The times of skipped events are not looked at. *)
