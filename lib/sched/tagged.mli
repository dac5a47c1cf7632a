(** The tag-sorted baselines: six disciplines that stamp every packet with
    a virtual start and finish tag [(S, F)] and serve the backlogged session
    whose head tag is smallest.

    Paper §3 describes each of them as a virtual-time function plus a
    selection policy, and that is all that differs between them here. One
    skeleton owns the session pool, the per-session {!Stamp_queue}, the
    ready heap (plus a waiting heap for SEFF), the protocol checks, close
    with [`Drain]/[`Drop] and observer dispatch; each factory supplies only
    its stamp rule.

    Protocol misuse — [backlog] of a backlogged session, [requeue] or
    [set_idle] of an idle one — raises [Invalid_argument "<name>: …"]
    before any state changes (see {!Sched_intf}). [open_session] rejects a
    rate [<= 0]. *)

val wfq : Sched_intf.factory
(** WFQ (paper §3.1): stamps from the exact GPS virtual time
    ({!Gps_clock}, eqs. 6–7), served smallest virtual finish first (SFF).
    For FIFO session queues the per-packet stamps coincide with the
    per-session stamping of eqs. 28–29. Closed slots retire rather than
    recycle, since the fluid clock integrates per-slot state over the whole
    busy period, and [`Drop] of a backlogged session is rejected: the fluid
    system would still owe it the dropped bits. *)

val wf2q : Sched_intf.factory
(** WF²Q (paper §3.3): WFQ's stamps, served smallest-eligible-finish
    first (SEFF): only head packets whose virtual start is [≤ V_GPS(now)],
    i.e. that have already started service in the fluid system, may be
    chosen. Eligibility tolerates {!Float_cmp.epsilon}; if rounding leaves
    no head eligible, the earliest start is served. Same lifecycle limits
    as {!wfq}. *)

val scfq : Sched_intf.factory
(** SCFQ (Golestani '94), self-clocked: [v(t)] is the {e finish} tag of
    the packet in service; arrivals stamp [S = max(F_prev, v)],
    [F = S + L/r_i]; serve smallest [F]. Its virtual time can have slope 0
    over long stretches, which is why its delay bound (and WFI) is loose —
    the property the paper contrasts WF²Q+ against (§3.4). Tags reset
    whenever the system drains (busy-period epochs). *)

val sfq : Sched_intf.factory
(** SFQ (start-time fair queueing): as {!scfq}, but [v(t)] is the
    {e start} tag of the packet in service and the smallest [S] is
    served. *)

val virtual_clock : Sched_intf.factory
(** Virtual Clock (Zhang '90): per-session real-time clocks.

    Each arrival is stamped [VC_i = max(now, VC_i) + L/r_i] and the server
    serves the smallest stamp; the reported virtual time is the stamp last
    selected. Guarantees rates but is notoriously unfair about excess
    bandwidth — a session that idles builds no credit, while one that
    over-sends is punished indefinitely. Included as a baseline to contrast
    with the PFQ family on fairness benches. *)

val fifo : Sched_intf.factory
(** Global FIFO across sessions: serve packets strictly in arrival order,
    ignoring rates (each packet's tag is its arrival rank; the reported
    virtual time is the arrival count). The no-isolation baseline for
    fairness benches. *)
