(** Virtual Clock (Zhang '90): per-session real-time clocks.

    Each arrival is stamped [VC_i = max(now, VC_i) + L/r_i] and the server
    serves the smallest stamp. Guarantees rates but is notoriously unfair
    about excess bandwidth — a session that idles builds no credit, while
    one that over-sends is punished indefinitely. Included as a baseline to
    contrast with the PFQ family on fairness benches. *)

val factory : Sched_intf.factory
