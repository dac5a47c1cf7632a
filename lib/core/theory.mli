(** Analytical bounds from the paper, §3.2–§3.4.

    These calculators turn a {!Class_tree.t} plus packet-size assumptions
    into the numbers the theorems promise; the test-suite and the bench
    harness compare measured behaviour against them. Quantities follow the
    paper's notation: B-WFI [α] in bits, T-WFI [𝒜 = α/r_i] in seconds. *)

val bwfi_wf2q : l_i_max:float -> l_max:float -> r_i:float -> r:float -> float
(** Theorem 3(2)/4(2): [α_i = L_i,max + (L_max − L_i,max)·r_i/r]. Applies to
    both WF²Q and WF²Q+. *)

val twfi_of_bwfi : bwfi:float -> r_i:float -> float
(** [𝒜_{i,s} = α_{i,s}/r_i] (equivalence shown below eq. 15). *)

val bwfi_wfq_worst_case : n:int -> l_max:float -> r_i:float -> r:float -> float
(** The WFQ discrepancy demonstrated in §3.1: a session can be served up to
    ~N/2 packets ahead of GPS, so sessions sharing the server can be starved
    for about [N·L_max/2 / r] seconds; expressed as bits at rate [r_i] plus
    the packet in service. This is the {e order} of WFQ's WFI (it "grows
    proportionally to the number of queues"), used to size expectations in
    benches, not a tight constant. *)

val delay_bound_standalone_wf2q :
  sigma:float -> r_i:float -> l_max:float -> r:float -> float
(** Theorem 3(3)/4(3): [σ_i/r_i + L_max/r] for a [(σ_i, r_i)]-constrained
    session on a standalone WF²Q(+) server. *)

(** Per-node B-WFI assumptions used when composing bounds over a tree. *)
type node_alpha = { node : string; alpha : float; rate : float }

val hier_bwfi :
  tree:Class_tree.t -> leaf:string -> alpha_of:(node:string -> rate:float -> parent_rate:float -> float) ->
  (float, string) result
(** Theorem 1: [α_{i,H-PFQ} = Σ_{h=0}^{H-1} (φ_i/φ_{p^h(i)}) · α_{p^h(i)}]
    where [alpha_of] supplies the B-WFI guaranteed to the logical queue at
    each node on the leaf-to-root path (the leaf itself at [h = 0] up to the
    root's child at [h = H−1]). Rates are absolute, so
    [φ_i/φ_{p^h(i)} = r_i/r_{p^h(i)}]. *)

val hier_delay_bound :
  tree:Class_tree.t -> leaf:string -> sigma:float -> l_max:float -> (float, string) result
(** Corollary 2 for H-WF²Q+ with [L_max = L_i,max]:
    [σ_i/r_i + Σ_{h=0}^{H-1} L_max/r_{p^h(i)}]. *)

val hier_delay_bound_via_wfi :
  tree:Class_tree.t -> leaf:string -> sigma:float -> l_max:float -> (float, string) result
(** Corollary 1 (looser): [σ_i/r_i + Σ_h α_{p^h(i)}/r_{p^h(i)}] with the
    WF²Q+ per-node [α] of Theorem 4. Dominates {!hier_delay_bound}; exposed
    so tests can check the ordering of the two bounds. *)

val path_rates : tree:Class_tree.t -> leaf:string -> (float list, string) result
(** Rates [r_{p^0(i)} … r_{p^H(i)}] from the leaf up to and including the
    root; building block for custom bounds. *)

val epoch_lag_bound : epoch:int -> l_max:float -> rate:float -> float
(** [(epoch − 1) · L_max / rate]: per-session service lag of the
    epoch-batched root sync ({!Hier_flat.create} with [~epoch:k]) against
    the sequential H-WF²Q+ schedule.

    Derivation, in the paper's service-lag algebra: with epoch [k] the
    engine integrates a staged arrival at latest [k−1] link departures
    after the sequential schedule saw it (the in-flight packet blocks both
    schedules, the sync fires before the root's next selection), so every
    eq. 28 stamp on the packet's path shifts by at most the real time those
    departures occupy — at most [k−1] maximal packets' worth of link time —
    and a session guaranteed rate [rate] converts that shift into at most
    [(k−1) · L_max / rate] of service lag. At [k = 1] the bound is [0]:
    the engine is bit-identical to the sequential schedule. Asserted
    against measured per-packet departure-time lag on random trees in
    test/lockstep.ml.
    @raise Invalid_argument if [epoch < 1], [l_max <= 0] or [rate <= 0]. *)
