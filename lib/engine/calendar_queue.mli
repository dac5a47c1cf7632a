(** Calendar-queue pending set (Brown-style bucketed circular
    calendar over time): amortized O(1) schedule/extract on near-future
    timer distributions, lazy bucket resize keyed to live-event density,
    lazy cancellation with bounded garbage. The simulator's event set;
    {!Slot_heap} is the reference the tests cross-check it against. See
    {!Event_set.S} for the contract of each operation. *)

include Event_set.S
