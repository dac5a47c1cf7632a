(** Self-clocked disciplines: SCFQ (Golestani '94) and SFQ (start-time fair
    queueing).

    Both avoid the GPS fluid emulation by reusing a tag of the packet
    currently in service as the virtual time:

    - {b SCFQ}: [v(t)] = {e finish} tag of the in-service packet; arrivals
      stamp [S = max(F_prev, v)], [F = S + L/r_i]; serve smallest [F].
    - {b SFQ}: [v(t)] = {e start} tag of the in-service packet; same
      stamping; serve smallest [S].

    Their virtual times can have slope 0 over long stretches, which is why
    the delay bounds (and WFIs) of the resulting servers are loose — the
    property the paper contrasts WF²Q+ against (§3.4). Tags reset whenever
    the system drains (busy-period epochs). *)

type flavour = Scfq | Sfq

val scfq : Sched_intf.factory
val sfq : Sched_intf.factory
