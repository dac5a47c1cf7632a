(** Stable flow routing for the multi-port device.

    Two pure functions of their arguments and nothing else — no state,
    no RNG draws, no dependence on worker count or call order. That
    purity {e is} the flow-stability invariant the device relies on (and
    the property tests pin down): the same flow id always lands on the
    same output link and the same class leaf, so each link's arrival
    stream is fixed by the workload alone and a link can be replayed on
    any domain, or on its own.

    Hashing is {!Engine.Rng.mix64} (SplitMix64 finalizer) rather than
    [Hashtbl.hash]: full 64-bit avalanche, identical across OCaml
    versions and processes. *)

val link_of_flow : links:int -> int -> int
(** [link_of_flow ~links flow] — the output link in [0 .. links-1] flow
    [flow] is wired to.
    @raise Invalid_argument if [links < 1] or [flow < 0]. *)

val leaf_of_flow : leaves:int -> int -> int
(** [leaf_of_flow ~leaves flow] — the class-tree leaf slot in
    [0 .. leaves-1] the flow's packets enter on its link. Uses an
    independent hash dimension from {!link_of_flow}, so sibling flows on
    one link spread over the link's classes.
    @raise Invalid_argument if [leaves < 1] or [flow < 0]. *)

(** Open-on-first-arrival flow→session mapping for a dynamic session set.

    The routing functions above map a flow id onto a {e static} class
    leaf. [Sessions] covers the lifecycle path: flows map onto policy
    sessions that may not exist yet, and the first packet of an unknown
    flow opens its session at ingress. Closing forgets the mapping, so a
    later packet of the same flow id opens a {e fresh} session (new
    handle generation, fresh virtual-time stamps) — exactly the churn
    pattern [bench churn] drives at 10⁵–10⁶ concurrent flows. *)
module Sessions : sig
  type t

  val create :
    ?rate_of_flow:(int -> float) ->
    policy:Sched.Sched_intf.t ->
    default_rate:float ->
    unit ->
    t
  (** [rate_of_flow] gives each new session's guaranteed rate (default:
      [default_rate] for every flow).
      @raise Invalid_argument if [default_rate <= 0]. *)

  val handle : t -> flow:int -> Sched.Session_handle.t
  (** The flow's session handle, opening the session on first sight. *)

  val session : t -> flow:int -> int
  (** The flow's session slot ({!handle} resolved), for the driving
      protocol. *)

  val close : t -> policy:Sched.Sched_intf.close_policy -> now:float -> flow:int -> unit
  (** Close the flow's session (no-op for unknown flows) and forget the
      mapping; the flow id re-opens on its next arrival. *)

  val known : t -> flow:int -> bool
  val live : t -> int
end
