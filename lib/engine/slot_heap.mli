(** Reference pending set for tests: binary min-heap of pool slots ordered
    by (time, seq). O(log n) schedule/extract. See {!Event_set.S} for the
    contract of each operation. *)

include Event_set.S
