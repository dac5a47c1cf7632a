(* Slot lifecycle manager for dynamic sessions, mirroring
   Engine.Event_pool: a freelist of recyclable slots plus a per-slot
   generation bumped on every free, so stale handles are detected instead
   of silently addressing the slot's next tenant. The pool owns only the
   lifecycle state (free / live / draining); the discipline owns the
   per-slot scheduling arrays and grows them in step with [capacity]. *)

exception Stale_handle of string

type state = Free | Live | Draining

type t = {
  name : string;
  recycle : bool;
  mutable gens : int array;
  mutable state : state array;
  mutable next_free : int array; (* freelist link, -1 ends the list *)
  mutable free_head : int;
  mutable n_slots : int; (* high-water slot count (dense prefix) *)
  mutable live : int; (* live + draining *)
}

let create ?(name = "sessions") ?(recycle = true) ?(capacity = 16) () =
  let cap = max 2 capacity in
  {
    name;
    recycle;
    gens = Array.make cap 0;
    state = Array.make cap Free;
    next_free = Array.make cap (-1);
    free_head = -1;
    n_slots = 0;
    live = 0;
  }

let capacity t = Array.length t.gens
let live_count t = t.live
let slot_count t = t.n_slots

let grow t =
  let cap = Array.length t.gens in
  let cap' = 2 * cap in
  let grow_i a = let b = Array.make cap' 0 in Array.blit a 0 b 0 cap; b in
  t.gens <- grow_i t.gens;
  let state = Array.make cap' Free in
  Array.blit t.state 0 state 0 cap;
  t.state <- state;
  let next_free = Array.make cap' (-1) in
  Array.blit t.next_free 0 next_free 0 cap;
  t.next_free <- next_free

let alloc t =
  let slot =
    if t.recycle && t.free_head >= 0 then begin
      let slot = t.free_head in
      t.free_head <- t.next_free.(slot);
      slot
    end
    else begin
      if t.n_slots = Array.length t.gens then grow t;
      let slot = t.n_slots in
      t.n_slots <- slot + 1;
      slot
    end
  in
  t.state.(slot) <- Live;
  t.live <- t.live + 1;
  slot

let handle t slot = Session_handle.pack ~slot ~gen:t.gens.(slot)

let stale t h reason =
  raise
    (Stale_handle
       (Printf.sprintf "%s: stale session handle %s (%s)" t.name
          (Format.asprintf "%a" Session_handle.pp h)
          reason))

let resolve t h =
  let slot = Session_handle.slot h in
  if slot >= t.n_slots then stale t h "slot never allocated"
  else if t.state.(slot) = Free then stale t h "session closed"
  else if t.gens.(slot) <> Session_handle.generation h then
    stale t h "slot recycled by a newer session"
  else slot

let is_live t slot = slot >= 0 && slot < t.n_slots && t.state.(slot) <> Free
let unknown_session t = invalid_arg (t.name ^ ": unknown session")
let[@inline] check_live t slot = if not (is_live t slot) then unknown_session t
let is_draining t slot = slot >= 0 && slot < t.n_slots && t.state.(slot) = Draining

let mark_draining t slot =
  if not (is_live t slot) then invalid_arg (t.name ^ ": mark_draining of free slot");
  t.state.(slot) <- Draining

let free t slot =
  if not (is_live t slot) then invalid_arg (t.name ^ ": free of free slot");
  t.state.(slot) <- Free;
  t.gens.(slot) <- (t.gens.(slot) + 1) land Session_handle.gen_mask;
  t.live <- t.live - 1;
  if t.recycle then begin
    t.next_free.(slot) <- t.free_head;
    t.free_head <- slot
  end
