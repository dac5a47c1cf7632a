(** Shared implementation of the two GPS-tracking disciplines.

    WFQ and WF²Q differ only in the selection rule applied to the exact GPS
    virtual time ({!Gps_clock}):

    - {b SFF} (WFQ, paper §3.1): serve the backlogged session whose head
      packet has the smallest virtual finish time;
    - {b SEFF} (WF²Q, paper §3.3): restrict the choice to {e eligible}
      sessions — head packets whose virtual start time is [≤ V_GPS(now)],
      i.e. packets that have already started service in the fluid system —
      and among them pick the smallest virtual finish.

    Per-packet stamps are computed at arrival time from eqs. 6–7 (the
    original WFQ definition); for FIFO session queues this coincides with
    the per-session stamping of eqs. 28–29. *)

type discipline = Sff | Seff

val wfq : Sched_intf.factory
val wf2q : Sched_intf.factory
