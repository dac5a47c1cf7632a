(** The class hierarchies used by the paper's experiments, reconstructed.

    The paper states the load-bearing parameters (RT-1's 0.81 share of its
    parent = 9 Mbps, 8 KB packets, the on/off duty cycles, CS trains ~193 ms
    apart, which sessions sit at which level) but not every leaf's rate; the
    remaining values are fixed here so that every stated number holds and
    ratios stay clean. See EXPERIMENTS.md for the full derivation. *)

(** {1 Fig. 1 — the link-sharing example of the introduction} *)

val fig1 : link_rate:float -> Hpfq.Class_tree.t
(** 11 agencies; A1 owns 50% split into best-effort (20% of A1) and
    real-time subclasses. *)

(** {1 Fig. 3 — delay experiment hierarchy (§5.1)} *)

val fig3_link_rate : float
(** 44.44 Mbps (≈T3): makes RT-1's stated numbers exact
    (9 Mbps = 0.81 × 11.11 Mbps, N-1 = ½ N-2, N-2 = ½ link). *)

val fig3_packet_bits : float
(** 8 KB = 65536 bits, the paper's uniform packet size. *)

val fig3 : Hpfq.Class_tree.t
(** {v
    N-R 44.44 Mbps
    ├─ N-2 22.22 (0.5)
    │   ├─ N-1 11.11 (0.5)
    │   │   ├─ RT-1 9.0  (0.81)       measured real-time session
    │   │   └─ BE-1 2.11 (0.19)       greedy best-effort
    │   └─ CS-1..CS-10 1.111 each     packet-train sources
    └─ PS-1..PS-10 2.222 each         constant-rate / Poisson sources
    v}
    CS-n and PS-n are direct siblings of RT-1's ancestors, so the one-level
    servers on RT-1's path each schedule 11 sessions — the regime where
    WFQ's WFI (∝ session count) degrades the hierarchy's delay. *)

val rt1_rate : float
val rt1_sigma_bits : float
(** Burstiness of RT-1's on/off pattern: peak×on_duration worth of bits
    beyond the sustained rate; used for delay-bound comparisons. *)

val ps_rate : float

(** {1 Fig. 8 — link-sharing hierarchy with TCP and on/off sources (§5.2)} *)

val fig8 : Hpfq.Class_tree.t
(** Four levels; one on/off source per level; TCP-1 at level 1, TCP-5 at 2,
    TCP-8 at 3, TCP-10/11 at 4 — the five sessions §5.2 examines. *)

val fig8_tcp_leaves : string list
(** ["TCP-1"; "TCP-5"; "TCP-8"; "TCP-10"; "TCP-11"]. *)

val fig8_onoff_schedule : (string * float * (float * float) list) list
(** [(leaf, peak_rate, active_windows)]: the §5.2 narrative's toggle times —
    source 4 active on [5.0,8.0]; sources 2–3 active until 5.0 (3 again from
    8.0); source 1 idle on (5.25,6.0), (6.75,7.5), (8.25,9.0). Seconds. *)

val fig8_horizon : float
(** 10 s of simulated time. *)
