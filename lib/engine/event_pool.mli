(** Slot-indexed struct-of-arrays storage for pending events.

    The pool owns every event's fields (fire time, FIFO sequence, action,
    lifecycle state, cancellation generation) plus the slot freelist; the
    pending sets ({!Calendar_queue}, and {!Slot_heap}, its test reference)
    order bare slot indices over it. The record is exposed so they read
    fields with plain array loads — this is the simulator hot path. *)

type t = {
  mutable times : float array;  (** unboxed fire times, slot-indexed *)
  mutable seqs : int array;  (** FIFO tie-break (global schedule order) *)
  mutable actions : (unit -> unit) array;
  mutable gens : int array;  (** bumped on {!free}; stale ids don't match *)
  mutable state : Bytes.t;  (** {!st_free} / {!st_live} / {!st_cancelled} *)
  mutable next_free : int array;  (** freelist link, [-1] ends the list *)
  mutable free_head : int;
}

val st_free : char
val st_live : char
val st_cancelled : char

val no_action : unit -> unit
(** Placeholder stored in freed slots so closures are released eagerly. *)

val gen_mask : int
(** Generations occupy the low 31 bits of a packed event id. *)

val create : ?capacity:int -> unit -> t
(** Fresh pool, every slot free (default capacity 16; doubles on demand). *)

val capacity : t -> int
(** Current number of slots (free + in use). *)

val alloc : t -> int
(** Take a slot off the freelist, growing the pool if it is exhausted.
    The caller fills the fields and sets the state. *)

val free : t -> int -> unit
(** Return a slot to the freelist: clears the action, bumps the
    generation (invalidating outstanding ids) and marks it [st_free]. *)

val is_live : t -> int -> bool

val before : t -> int -> int -> bool
(** [(time, seq)] strict order between two slots — the ordering every
    pending set must agree on. *)
