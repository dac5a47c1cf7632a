(** Arena-slot lifecycle for dynamic sessions.

    Mirrors [Engine.Event_pool]: slots are recycled through a freelist and
    every free bumps the slot's generation, so a {!Session_handle.t} held
    past [close_session] raises {!Stale_handle} on {!resolve} instead of
    silently addressing the slot's next tenant. The pool owns only
    lifecycle state — free / live / draining — while the owning discipline
    keeps its per-slot scheduling arrays sized to {!capacity} (dense slots:
    [alloc] returns either a recycled slot or [slot_count], never skips).

    [Draining] is the half-closed state behind the [`Drain] close policy: a
    draining session is still scheduled (it is emptying its queue) but its
    slot is already committed to die — the discipline calls {!free} when
    the session finally goes idle. *)

exception Stale_handle of string

type t

val create : ?name:string -> ?recycle:bool -> ?capacity:int -> unit -> t
(** [name] prefixes error messages. [recycle:false] disables slot reuse
    (freed slots still invalidate their handles, but [alloc] always
    extends the arena) — for disciplines whose side structures cannot be
    re-initialised per slot, e.g. the exact-GPS fluid clock. *)

val alloc : t -> int
(** Claim a slot (recycled, or a fresh one at [slot_count]); marks it live. *)

val handle : t -> int -> Session_handle.t
(** The current-generation handle for a live slot. *)

val resolve : t -> Session_handle.t -> int
(** Slot of a live (or draining) handle.
    @raise Stale_handle if the session was closed or the slot recycled. *)

val free : t -> int -> unit
(** Release a slot: bumps its generation and (if recycling) freelists it.
    @raise Invalid_argument if the slot is already free. *)

val mark_draining : t -> int -> unit
val is_draining : t -> int -> bool

val is_live : t -> int -> bool
(** Live or draining. *)

val check_live : t -> int -> unit
(** Guard for the driving-protocol operations, which address sessions by
    slot: a closed (or never opened) slot must not be scheduled.
    @raise Invalid_argument ["<name>: unknown session"] unless the slot is
    live or draining. *)

val live_count : t -> int
val slot_count : t -> int
(** High-water slot count — the dense prefix the discipline's arrays must
    cover. *)

val capacity : t -> int
