(** WF²Q+ with {e per-packet} virtual time stamps — the ablation of the
    paper's eq. 28–29 simplification.

    The original WFQ/WF²Q definition (eqs. 6–7) stamps every packet at its
    {e arrival}: [S_i^k = max(F_i^{k−1}, V(a_i^k))], [F_i^k = S_i^k + L/r_i]
    — which in a real implementation means carrying timestamps per packet
    ("stamping the values in the header", as §3.4 notes, unacceptable for
    ATM-size packets). WF²Q+ replaces this with one [(S_i, F_i)] pair per
    session, updated when a packet reaches the head of its queue.

    This module keeps the WF²Q+ virtual-time function (eq. 27) but uses the
    per-packet stamping, so the pair ({!Wf2q_plus}, this) isolates exactly
    the stamping design decision. It is the same one-node {!Wf2q_kernel}
    as {!Wf2q_plus} plus a per-session queue of arrival stamps: the head's
    [(S, F)] is written into the kernel before the session is filed, and
    the head size the kernel charges to V is recovered as [(F − S)·r_i].
    For FIFO session queues the two schedules coincide except for
    occasional transpositions of adjacent services
    (arrival stamping lifts S to V(a) when eq. 27's V has overtaken the
    session's previous finish tag; head stamping chains S = F regardless);
    a qcheck property verifies every packet departs within one max-packet
    transmission time of its departure under {!Wf2q_plus}. *)

val factory : Sched.Sched_intf.factory
