(** Generation-tagged session handles.

    {!Sched_intf.t.open_session} returns one of these instead of a raw
    session index: the handle remembers both the arena {e slot} the session
    occupies and the slot's allocation {e generation}. When a session is
    closed its slot goes back on the policy's freelist and the generation is
    bumped, so a handle kept past [close_session] no longer resolves —
    {!Session_pool.resolve} raises {!Session_pool.Stale_handle} instead of
    silently addressing whichever session recycled the slot. This mirrors
    the packed event ids [Engine.Simulator] hands out over
    [Engine.Event_pool].

    The type is abstract: callers cannot fabricate a handle from a raw int
    (use {!of_int_unsafe} only to revive a handle previously exported with
    {!to_int}, e.g. across a serialization boundary). *)

type t

val pack : slot:int -> gen:int -> t
(** Used by {!Session_pool} (and custom policies): tag [slot] with
    generation [gen]. @raise Invalid_argument if [slot] is negative or
    is at or above 2^31. *)

val gen_mask : int
(** Mask applied to generations before packing; pool implementations bump
    generations modulo this so pool and handle agree on wraparound. *)

val slot : t -> int
(** The arena slot this handle addresses. Valid only while the handle is
    live — resolve through {!Session_pool.resolve} (or the owning policy's
    [session_of_handle]) instead of calling this on untrusted handles. *)

val generation : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

val to_int : t -> int
(** Stable external encoding (slot + generation packed in one int). *)

val of_int_unsafe : int -> t
(** Inverse of {!to_int}. No validation — the suffix is the warning. *)

val pp : Format.formatter -> t -> unit
