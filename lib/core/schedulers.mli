(** The unified scheduler-construction surface.

    Historically each discipline grew its own entry point — a per-module [make],
    [Sched.Tagged.wfq], [Sched.Round_robin.drr ()], [Hier.create],
    [Hier_flat.create] — with drifting signatures. This module is the one
    front door: every constructor takes the same labelled arguments
    ([~rate], [?observer], [?initial_sessions]) and returns the policy
    together with the generation-tagged handles of any sessions opened at
    construction. The per-discipline factories and [create] functions remain
    as the plumbing underneath ({!Hier} builds every node from a factory)
    and for code that needs a discipline's extended surface, e.g.
    {!Wf2q_plus_fixed.v_ticks}.

    Sessions opened later go through {!Sched.Sched_intf.open_session} /
    [close_session] on the returned policy — see {!Sched.Session_pool} for
    the arena/generation semantics. *)

val kinds : unit -> string list
(** Registered discipline kinds, in {!Disciplines.all} order
    (e.g. ["WF2Q+"; "WF2Q+fx"; ...]). *)

val make :
  ?observer:Sched.Sched_intf.observer ->
  ?initial_sessions:float array ->
  rate:float ->
  Sched.Sched_intf.factory ->
  Sched.Sched_intf.t * Sched.Session_handle.t array
(** [make ~rate factory] builds a standalone one-level policy serving at
    [rate] bits/second. [initial_sessions] gives the guaranteed rates of
    sessions to open immediately; [handles.(i)] is the handle of the
    session opened with [initial_sessions.(i)] (slots are dense from 0 on a
    fresh policy). [observer] is installed before any session opens.
    @raise Invalid_argument if [rate] or any session rate is non-positive,
    or if the session rates sum to more than [rate] — they are guaranteed
    rates and an oversubscribed link cannot honour them. Nothing is
    constructed when the check fails. *)

val of_kind :
  ?observer:Sched.Sched_intf.observer ->
  ?initial_sessions:float array ->
  rate:float ->
  string ->
  Sched.Sched_intf.t * Sched.Session_handle.t array
(** {!make} by case-insensitive kind name ({!Disciplines.find}).
    @raise Invalid_argument on an unknown kind. *)

val server :
  sim:Engine.Simulator.t ->
  ?observer:Sched.Sched_intf.observer ->
  ?initial_sessions:float array ->
  ?on_depart:(Net.Packet.t -> float -> unit) ->
  ?on_drop:(Net.Packet.t -> float -> unit) ->
  rate:float ->
  Sched.Sched_intf.factory ->
  unit ->
  Server.t * Sched.Session_handle.t array
(** A complete one-level output port: {!make} plus {!Server.create} around
    it, with [initial_sessions] opened through the server (so the server's
    per-session queues exist). *)

val hier :
  sim:Engine.Simulator.t ->
  spec:Class_tree.t ->
  ?factory:Sched.Sched_intf.factory ->
  ?engine:Hier_engine.choice ->
  ?root_clock:[ `Real_time | `Reference_time ] ->
  ?on_depart:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?on_drop:(Net.Packet.t -> leaf:string -> float -> unit) ->
  ?burst_max:int ->
  unit ->
  Hier_engine.t
(** A hierarchical server over [spec] with a uniform discipline at every
    interior node (default WF²Q+, giving H-WF²Q+ on the fast flat engine
    via [`Auto]). Delegates to {!Hier_engine.create}; mixed-discipline
    trees still call {!Hier.create} directly. Leaf lifecycle (close /
    reopen) is on the returned engine: {!Hier_engine.close_leaf}. *)
