(* The pending-event-set contract.

   An event set orders bare slot indices of an Event_pool by the pool's
   (time, seq) key. Cancellation is *not* an event-set operation: the
   simulator flips the slot's pool state to [st_cancelled] in O(1) and the
   set drops cancelled entries lazily — while searching for the next live
   event ([peek_live]/[pop_live] free any cancelled entry standing between
   the current position and the answer) and wholesale under [compact],
   which the simulator triggers whenever cancelled entries outnumber live
   ones so memory stays bounded under cancel churn.

   Two implementations:

   - [Calendar_queue] — a Brown-style bucketed circular calendar,
     amortized O(1) per schedule/extract on the near-future-timer
     distributions discrete event simulation actually produces. The
     simulator runs it.
   - [Slot_heap] — a binary heap of slots, O(log n) per schedule/extract,
     no tuning, small enough to audit. Nothing runs it but the tests: the
     lockstep differential in test/test_event_set.ml drives both through
     identical op sequences over one pool and compares every answer. *)

module type S = sig
  type t

  val create : Event_pool.t -> t
  (** Empty set over [pool]. The set keeps the pool handle: ordering
      reads and lazy reclamation ([Event_pool.free] of cancelled slots it
      removes) go through it. *)

  val add : t -> int -> unit
  (** Insert a slot whose pool fields (time, seq, state = live) are
      already set. The slot's time must be >= the time of the last slot
      returned by [pop_live] (the simulator rejects past schedules). *)

  val peek_live : t -> int
  (** Earliest live slot without removing it, or [-1] if none. Cancelled
      entries encountered on the way are removed and freed back to the
      pool. A subsequent [pop_live] with no interleaved [add] is O(1). *)

  val pop_live : t -> int
  (** Remove and return the earliest live slot, or [-1] if none. Frees
      cancelled entries it passes, like [peek_live]. *)

  val size : t -> int
  (** Entries currently held, including not-yet-reclaimed cancelled
      ones. [size t - live] (the simulator tracks [live]) is the garbage
      the next [compact] would reclaim. *)

  val capacity : t -> int
  (** Allocated extent of the ordering structure (heap array length /
      calendar bucket count) — exposed through [Simulator.stats] so
      resize behaviour is observable. *)

  val compact : t -> unit
  (** Drop every cancelled entry and free its slot. *)

  val resizes : t -> int
  (** Internal structural resizes so far (0 for sets that never
      restructure; bucket-array rebuilds for the calendar). *)
end
