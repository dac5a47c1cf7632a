(** Session-churn benchmark ([bench churn]) and virtual-time soak harness.

    The churn grid sizes the session-lifecycle machinery: 10⁵–10⁶
    sessions open on one policy, then a steady loop of
    backlog → [close_session ~policy:`Drop] → [open_session] (slot reuse
    through the arena freelist, generation bump per reopen). The headline
    is the fixed-point engine's churn events/second at the largest grid
    point; the acceptance floor is 10⁵ events/s.

    The soak harness drives one continuously backlogged session at a
    non-dyadic rate and measures how far each engine's virtual time
    drifts from the exact accumulated service (eqs. 27–29): the float
    engine picks up one rounding per packet, the fixed-point engine adds
    exact integer ticks and is checked for {e zero} drift in the integer
    domain. *)

val floor : float
(** The acceptance floor, 10⁵ churn events/s at 10⁶ open sessions: the
    report's [headline.floor_events_per_sec] and the guard's absolute
    floor. *)

val report : quick:bool -> Bench_kit.Json.t
(** Run the grid (engines {WF²Q+fx, WF²Q+} × sessions {10⁵, 10⁶};
    [~quick:true] shrinks to 10⁴ sessions and a shorter loop), one cell
    after another, print a table and return the report (schema
    ["hpfq-bench-churn-v2"]). Each row is the cell's churn events/s over
    an [Indexed_heap4] drop-min/add hold at the same N (each step two
    heap operations) as {!Bench_kit.Suite.pairs}, with the median churn
    rate; the headline is the fixed-point engine's largest cell.
    @raise Failure if a cell leaks or loses sessions. *)

val probe : quick:bool -> Bench_kit.Json.t
(** The guard's fresh side: the report's headline cell, as
    [churn_over_heap] (its pairs) and [headline.churn_events_per_sec]
    (its median churn rate). *)

type soak_result = {
  s_engine : string;
  s_packets : int;
  s_v_end : float;  (** virtual time after the run *)
  s_drift : float;  (** signed error of V vs exact [n * step] *)
  s_exact : bool;  (** drift known exactly zero (integer-domain check) *)
}

val soak : ?packets:int -> unit -> soak_result list
(** Long-horizon drift measurement at rate 0.3 (default 10⁷ packets;
    [HPFQ_SOAK]-gated callers pass 10⁹). Returns one result per engine,
    fixed-point first. The fixed-point result has [s_exact = true] and
    [s_drift = 0.] by construction; the float result's [s_drift] is the
    engine's accumulated rounding error, measurably non-zero. *)
