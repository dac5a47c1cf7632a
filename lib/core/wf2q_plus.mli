(** WF²Q+ — the paper's core contribution (§3.4).

    A Smallest-Eligible-virtual-Finish-time-First (SEFF) scheduler driven by
    the low-complexity virtual-time function of eq. 27:

    {v V(t+τ) = max( V(t)+τ , min_{i∈B̂(t)} S_i ) v}

    together with per-session start/finish stamps (eqs. 28–29): a packet
    reaching the head of a previously-empty session queue stamps
    [S_i = max(F_i, V(now))]; one reaching the head of a continuously
    backlogged queue stamps [S_i = F_i]; in both cases
    [F_i = S_i + L/r_i].

    Implementation: a one-node {!Wf2q_kernel} (the same code every
    {!Hier_flat} node runs) behind the {!Sched.Sched_intf.t} closures,
    with a {!Sched.Session_pool} for the session lifecycle. Backlogged
    sessions are split into an {e eligible} set ([S_i ≤ V], an indexed
    heap keyed by [F_i]) and a {e waiting} set (keyed by [S_i]).
    [select]:

    + advances [V] by the server time elapsed since the last selection
      (the [V(t)+τ] term — zero when driven in reference time, where the
      τ advance is folded into the per-service [L/r] step),
    + lifts [V] to [min S] when no session is eligible (the max-with-min
      term, which both caps the WFI of newly backlogged sessions and makes
      SEFF work-conserving),
    + migrates newly eligible sessions, pops the smallest finish time, and
      post-dates [V] and its timestamp by [L_selected/r] exactly as lines
      12–13 of RESTART-NODE do.

    Every operation is O(log N). Properties (Theorem 4): work-conserving;
    B-WFI [α_i = L_i,max + (L_max−L_i,max)·r_i/r]; delay bound
    [σ_i/r_i + L_max/r] for a [(σ_i, r_i)]-leaky-bucket session. The test
    suite checks all three empirically. *)

val factory : Sched.Sched_intf.factory
