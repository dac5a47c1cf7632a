(* Slot-indexed struct-of-arrays storage for pending events (see
   Event_set). The pool owns the event *fields* — fire time, FIFO
   sequence, action closure, lifecycle state, cancellation generation —
   while a pending set owns only an ordering structure over slot indices.
   Keeping the fields here means a set compares two events with two array
   loads and no per-event record ever exists; keeping the freelist here
   means slot reuse (and therefore generation bumping, which is what makes
   stale cancels safe) has a single owner, which also lets the tests run
   the calendar and its reference heap over one pool. *)

type t = {
  mutable times : float array; (* unboxed fire times *)
  mutable seqs : int array; (* FIFO tie-break, global schedule order *)
  mutable actions : (unit -> unit) array;
  mutable gens : int array; (* bumped on free; stale ids don't match *)
  mutable state : Bytes.t;
  mutable next_free : int array; (* freelist link, -1 ends the list *)
  mutable free_head : int;
}

let st_free = '\000'
let st_live = '\001'
let st_cancelled = '\002'
let no_action = ignore

(* Generations live in the low 31 bits of a packed event id (see
   Simulator.pack); the mask is shared so pool and packer agree. *)
let gen_mask = 0x7FFFFFFF

let create ?(capacity = 16) () =
  let cap = max 2 capacity in
  let next_free = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1) in
  {
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    actions = Array.make cap no_action;
    gens = Array.make cap 0;
    state = Bytes.make cap st_free;
    next_free;
    free_head = 0;
  }

let capacity t = Array.length t.times

let grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let grow_f a = let b = Array.make cap' 0.0 in Array.blit a 0 b 0 cap; b in
  let grow_i a = let b = Array.make cap' 0 in Array.blit a 0 b 0 cap; b in
  t.times <- grow_f t.times;
  t.seqs <- grow_i t.seqs;
  t.gens <- grow_i t.gens;
  let actions = Array.make cap' no_action in
  Array.blit t.actions 0 actions 0 cap;
  t.actions <- actions;
  let state = Bytes.make cap' st_free in
  Bytes.blit t.state 0 state 0 cap;
  t.state <- state;
  let next_free = Array.make cap' (-1) in
  Array.blit t.next_free 0 next_free 0 cap;
  (* thread the new slots onto the freelist *)
  for i = cap to cap' - 1 do
    next_free.(i) <- (if i = cap' - 1 then t.free_head else i + 1)
  done;
  t.next_free <- next_free;
  t.free_head <- cap

let alloc t =
  if t.free_head < 0 then grow t;
  let slot = t.free_head in
  t.free_head <- t.next_free.(slot);
  slot

let free t slot =
  Bytes.set t.state slot st_free;
  t.actions.(slot) <- no_action; (* release the closure *)
  t.gens.(slot) <- (t.gens.(slot) + 1) land gen_mask; (* invalidate old ids *)
  t.next_free.(slot) <- t.free_head;
  t.free_head <- slot

let is_live t slot = Bytes.get t.state slot = st_live

(* (time, seq) strict order: the tie-break makes same-instant events fire
   in schedule order, which keeps runs deterministic. *)
let before t a b =
  let ta = t.times.(a) and tb = t.times.(b) in
  ta < tb || (ta = tb && t.seqs.(a) < t.seqs.(b))
