(* Reference pending set: a binary min-heap of pool slots ordered by
   (time, seq). O(log n) schedule/extract, no tuning knobs, behaviour easy
   to audit. The simulator does not run it; the calendar queue is
   cross-checked against it by the lockstep differential test. Extracted verbatim from the PR-1 simulator;
   only the pool indirection is new. *)

type t = {
  pool : Event_pool.t;
  mutable heap : int array; (* slot indices, heap-ordered *)
  mutable size : int;
}

let create pool = { pool; heap = Array.make 16 (-1); size = 0 }
let size t = t.size
let capacity t = Array.length t.heap
let resizes _ = 0

let add t slot =
  let n = Array.length t.heap in
  if t.size = n then begin
    let heap = Array.make (2 * n) (-1) in
    Array.blit t.heap 0 heap 0 n;
    t.heap <- heap
  end;
  (* hole sift-up: slide ancestors down, write [slot] once *)
  let heap = t.heap in
  let pool = t.pool in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = Array.unsafe_get heap parent in
    if Event_pool.before pool slot p then begin
      Array.unsafe_set heap !i p;
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set heap !i slot

(* Sift the slot at heap position [i] down to its place. *)
let sift_down t i =
  let heap = t.heap in
  let pool = t.pool in
  let size = t.size in
  let slot = Array.unsafe_get heap i in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else begin
      let r = l + 1 in
      let best =
        if
          r < size
          && Event_pool.before pool (Array.unsafe_get heap r) (Array.unsafe_get heap l)
        then r
        else l
      in
      let b = Array.unsafe_get heap best in
      if Event_pool.before pool b slot then begin
        Array.unsafe_set heap !i b;
        i := best
      end
      else moving := false
    end
  done;
  Array.unsafe_set heap !i slot

(* Remove the heap minimum (caller checks non-empty). *)
let pop t =
  let top = t.heap.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.heap.(0) <- t.heap.(last);
    sift_down t 0
  end;
  t.heap.(last) <- -1;
  top

(* Pop-and-free cancelled tops until a live one surfaces. *)
let peek_live t =
  let result = ref (-2) in
  while !result = -2 do
    if t.size = 0 then result := -1
    else begin
      let top = t.heap.(0) in
      if Event_pool.is_live t.pool top then result := top
      else begin
        ignore (pop t);
        Event_pool.free t.pool top
      end
    end
  done;
  !result

let pop_live t =
  let slot = peek_live t in
  if slot >= 0 then ignore (pop t);
  slot

(* Drop every cancelled slot and rebuild bottom-up (Floyd heapify, O(n)). *)
let compact t =
  let heap = t.heap in
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = heap.(i) in
    if Event_pool.is_live t.pool slot then begin
      heap.(!j) <- slot;
      incr j
    end
    else Event_pool.free t.pool slot
  done;
  for i = !j to t.size - 1 do
    heap.(i) <- -1
  done;
  t.size <- !j;
  for i = (!j / 2) - 1 downto 0 do
    sift_down t i
  done
