(** Paged, packed storage for pending events.

    The pool owns every event's fields (fire time, FIFO sequence, action,
    lifecycle state, cancellation generation) plus one link word per slot;
    the pending sets ({!Calendar_queue}, and {!Slot_heap}, its test
    reference) order bare slot indices over it.

    Slots live in pages of {!page_size}. Page 0 starts at 16 slots (or
    the [capacity] asked for) and doubles up to a full page; after that
    the pool grows by appending a page, so growth never copies an event
    and an event id stays valid across it. A slot costs 40 bytes in three
    page arrays: its fire time in a float page; its [seq], its
    [(gen lsl 2) lor state] and its link in an int page of three blocks
    (all seqs, then all metas, then all links); and its action in an
    action page.

    The link is the freelist link while the slot is free, and belongs to
    the pending set while the slot is pending (the calendar chains its
    buckets through it). So a set must read a slot's link before it
    {!free}s the slot.

    Slot arguments must be slots this pool handed out ({!alloc}): the
    readers do not bounds-check them. *)

type t

val page_bits : int
val page_size : int
val page_mask : int

val times : t -> float array array
(** The fire-time page directory: slot [s]'s time is
    [(times t).(s lsr page_bits).(s land page_mask)]. The engine's hot
    paths read times this way, since a call to {!time} boxes the float
    wherever it is not inlined. Growth may replace the directory, so read
    it afresh after an {!alloc}. *)

val no_action : unit -> unit
(** Placeholder stored in freed slots so closures are released eagerly. *)

val gen_mask : int
(** Generations occupy the low 31 bits of a packed event id. *)

val create : ?capacity:int -> unit -> t
(** Fresh pool, every slot free (default capacity 16). A capacity above
    {!page_size} is rounded up to whole pages. *)

val capacity : t -> int
(** Current number of slots (free + in use). *)

val alloc : t -> int
(** Take a free slot, growing the pool if none is left: returned slots
    first, most recently freed first, then never-used slots in index
    order. The caller fills it with {!fill}. *)

val fill : t -> int -> at:float -> seq:int -> unit
(** [fill t slot ~at ~seq] writes the event's [(time, seq)] key and marks
    it live; its generation is kept. *)

val set_action : t -> int -> (unit -> unit) -> unit
(** Store the closure the event runs when it fires (the simulator's
    part; a pending set never reads it). *)

val cancel : t -> int -> unit
(** Mark a live slot cancelled. The slot stays where it is until the
    pending set that holds it frees it. *)

val free : t -> int -> unit
(** Return a slot to the freelist: clears the action, bumps the
    generation (invalidating outstanding ids), marks it free and
    overwrites its link. *)

val time : t -> int -> float
val action : t -> int -> unit -> unit

val gen : t -> int -> int
(** The slot's generation, bumped by every {!free}. *)

val is_live : t -> int -> bool

val link : t -> int -> int
val set_link : t -> int -> int -> unit

val before : t -> int -> int -> bool
(** [(time, seq)] strict order between two slots — the ordering every
    pending set must agree on. *)
