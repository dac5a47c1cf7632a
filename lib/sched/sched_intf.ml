(** The one-level Packet-Fair-Queueing building-block interface.

    Every scheduling discipline in this repository — the baselines (WFQ,
    WF²Q, SCFQ, SFQ, Virtual Clock, DRR, WRR, FIFO) and the paper's WF²Q+ —
    is exposed as a value of type {!t}: a record of closures over hidden
    mutable state. This uniform shape is what lets {!Hpfq.Hier} assemble an
    H-PFQ server out of arbitrary one-level servers, one per interior node,
    exactly as §4 of the paper prescribes ("one-level PFQ servers as basic
    building blocks").

    {2 Time domain}

    Every operation takes [now], the {e server time} of the node owning the
    policy. For a standalone server this is real time; for a server node in
    a hierarchy it is the node's reference time
    [T_n(t) = W_n(0,t)/r_n] (paper §4.1). The policy never looks at a wall
    clock of its own.

    {2 Driving protocol}

    The caller owns the packet queues; the policy only sees per-session head
    packets. For each session the caller must issue, in order:

    - [arrive] for {e every} packet arrival (lets GPS-exact policies track
      the fluid system; most policies also compute per-packet stamps here);
    - [backlog] when a session goes idle→backlogged (its first queued packet
      becomes the head of its logical queue);
    - after the server finishes serving a session's head packet: [requeue]
      if the session has another packet (with the new head), or [set_idle]
      if it emptied;
    - [select] whenever the server needs the next session to serve; the
      policy updates its virtual time and returns the chosen session, whose
      registered head packet the caller then serves.

    [backlog]/[requeue] correspond to the two branches of eq. 28: a packet
    reaching the head of a previously-empty queue stamps
    [S = max(F, V(now))], while one reaching the head of a continuously
    backlogged queue stamps [S = F].

    {2 Misuse}

    Every discipline in this repository rejects a call that breaks the
    protocol with [Invalid_argument "<name>: …"], raised before any state
    changes, so [backlogged_count] and the next [select] are as if the call
    never happened:
    - [arrive], [backlog], [requeue] or [set_idle] on a session that is not
      open (closed, or never opened; {!Session_pool.check_live});
    - [backlog] of a session that is already backlogged;
    - [requeue] or [set_idle] of a session that is not backlogged.

    [open_session] rejects a rate [<= 0].

    {2 Observability}

    Every discipline carries one optional {!observer}: a set of callbacks
    fired after each driving-protocol operation, stamped with the operation
    time and the policy's virtual time at that instant. Installing an
    observer is the uniform instrumentation point of the building-block
    contract — {!Hpfq.Hier} installs one per interior node to trace a whole
    hierarchy, and [lib/obs] records the callbacks into an event stream.

    The disabled state is [None], and disciplines must keep that state
    branch-cheap and allocation-free: the hot path does a single
    [match observer with None -> ()] per operation and computes the
    virtual-time stamp only on the [Some] branch. *)

type observer = {
  on_arrive : now:float -> vtime:float -> session:int -> size_bits:float -> unit;
  (** After [arrive]: a packet joined [session]'s queue. *)
  on_backlog : now:float -> vtime:float -> session:int -> head_bits:float -> unit;
  (** After [backlog]: the session went idle→backlogged. *)
  on_requeue : now:float -> vtime:float -> session:int -> head_bits:float -> unit;
  (** After [requeue]: a new head was stamped on a still-backlogged session. *)
  on_idle : now:float -> vtime:float -> session:int -> unit;
  (** After [set_idle]: the session drained. *)
  on_select : now:float -> vtime:float -> session:int -> unit;
  (** After a successful [select]; [vtime] is the post-update virtual time
      (for WF²Q+, the post-dated V of RESTART-NODE lines 12-13). *)
}

let null_observer =
  {
    on_arrive = (fun ~now:_ ~vtime:_ ~session:_ ~size_bits:_ -> ());
    on_backlog = (fun ~now:_ ~vtime:_ ~session:_ ~head_bits:_ -> ());
    on_requeue = (fun ~now:_ ~vtime:_ ~session:_ ~head_bits:_ -> ());
    on_idle = (fun ~now:_ ~vtime:_ ~session:_ -> ());
    on_select = (fun ~now:_ ~vtime:_ ~session:_ -> ());
  }

type close_policy = [ `Drain | `Drop ]
(** What [close_session] does to a still-backlogged session:
    - [`Drain]: the session stops accepting new work but keeps its place in
      the schedule until the caller reports it idle ([set_idle]), at which
      point its slot is freed — guaranteed service is honoured to the last
      queued packet.
    - [`Drop]: the session is removed from the eligible/waiting structures
      immediately (the caller discards its queue). Closing an idle session
      is identical under both policies.

    Either way the close is {e deterministic}: a policy that cannot support
    one of the variants must raise [Invalid_argument], never corrupt its
    heaps. *)

type t = {
  name : string;
  (** Discipline name, e.g. ["WF2Q+"]. Used in reports. *)
  open_session : rate:float -> Session_handle.t;
  (** Open a session with guaranteed rate [r_i] (bits per second of server
      time), any time — before or during service. Returns a
      generation-tagged handle; the underlying slot may recycle a closed
      session's storage, and a handle kept past [close_session] raises
      {!Session_pool.Stale_handle} when resolved. The session index the
      driving protocol uses is [session_of_handle (open_session ~rate)]. *)
  close_session : now:float -> policy:close_policy -> Session_handle.t -> unit;
  (** Close a session (see {!close_policy} for backlogged semantics).
      @raise Session_pool.Stale_handle if the handle is stale. *)
  session_of_handle : Session_handle.t -> int;
  (** Resolve a handle to the session index used by the driving protocol.
      @raise Session_pool.Stale_handle if the handle is stale. *)
  live_sessions : unit -> int;
  (** Number of open (live or draining) sessions. *)
  arrive : now:float -> session:int -> size_bits:float -> unit;
  (** Called for every packet arrival, in FIFO order per session. *)
  backlog : now:float -> session:int -> head_bits:float -> unit;
  (** Session transitioned idle→backlogged; [head_bits] is its new head. *)
  requeue : now:float -> session:int -> head_bits:float -> unit;
  (** The previously selected head was served; the session remains
      backlogged with a new head packet of [head_bits]. *)
  set_idle : now:float -> session:int -> unit;
  (** The previously selected head was served and the session emptied. *)
  select : now:float -> int option;
  (** Choose the session whose head to serve next, or [None] if no session
      is backlogged. Advances the policy's virtual time. *)
  virtual_time : now:float -> float;
  (** Introspection for tests: the policy's current virtual time (policies
      without one report a related quantity; see each module's doc). *)
  backlogged_count : unit -> int;
  (** Number of sessions currently registered as backlogged. *)
  set_observer : observer option -> unit;
  (** Install ([Some]) or remove ([None]) the policy's observer. [None] is
      the default; installing must not wrap or replace the operation
      closures (so removing an observer restores the exact untraced hot
      path). *)
}

(** Constructor type shared by all disciplines: a standalone factory taking
    the server rate in bits/second. [Hpfq.Hier] builds every interior node
    from one, and [Hpfq.Schedulers] wraps it in the labelled constructor
    surface ([~rate], [?observer], [?initial_sessions]). *)
type factory = { kind : string; make : rate:float -> t }
