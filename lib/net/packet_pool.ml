(* Packet arena in two interleaved cell arrays. Slot [s] is one int cell,
   [ints.(5s .. 5s+4)] = flow, seq, mark, generation, link, and one float
   cell, [floats.(2s .. 2s+1)] = size_bits, arrival: everything about a
   packet sits in two short runs of adjacent words (DESIGN.md §18).

   A packet is named by an int handle that packs the slot in its low 31
   bits and the slot's allocation generation above it — the same encoding
   as [Sched.Session_handle] over its session arena. Handles are immediate
   ints: storing one in a queue, passing one through an engine, or
   comparing two allocates nothing. A boxed [Packet.t] is materialised
   only at API boundaries ([to_packet]), with [uid] = the handle itself,
   which is unique within a pool for the lifetime of a run (every [free]
   bumps the slot's generation, so a recycled slot yields a different
   handle; wrap-around needs 2^31 recycles of one slot).

   The link word is the slot's state and its chain pointer at once:
     >= 0  queued, the handle of the next packet in its queue
     -1    queued, the tail of its queue
     -2    allocated, in no queue
     <= -3 free, chaining the freelist: the next free slot is [-4 - link]
           (-3 ends the list)
   [Queues] chains each queue through it, so a queue needs no storage of
   its own per element; [unlink_head]/[link_tail] are its only writers.

   Thread-safety: a pool is single-domain. *)

type handle = int

let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl slot_bits) - 1

(* never produced by packing (slot and masked gen are non-negative) *)
let none : handle = -1

(* int cell layout *)
let stride = 5
let f_flow = 0
let f_seq = 1
let f_mark = 2
let f_gen = 3
let f_link = 4

(* link states *)
let tail = -1
let unqueued = -2
let[@inline] free_link next = -4 - next

type t = {
  mutable ints : int array;
  mutable floats : float array; (* size_bits, arrival *)
  mutable free_head : int; (* -1 = no free slot: next alloc grows *)
  mutable capacity : int;
  mutable live : int;
}

(* chain slots [lo, hi) into a freelist ending at -1 *)
let chain_free ints ~lo ~hi =
  for s = lo to hi - 1 do
    ints.((s * stride) + f_link) <- free_link (if s = hi - 1 then -1 else s + 1)
  done

let create ?(initial_capacity = 64) () =
  if initial_capacity < 1 then
    invalid_arg "Packet_pool.create: capacity must be >= 1";
  let cap = initial_capacity in
  let ints = Array.make (cap * stride) 0 in
  chain_free ints ~lo:0 ~hi:cap;
  { ints; floats = Array.make (cap * 2) 0.0; free_head = 0; capacity = cap; live = 0 }

(* The int cells are copied in a typed loop: [Array.blit] into an int
   array in the major heap runs the write barrier per element. *)
let grow t =
  let old = t.capacity in
  let cap = 2 * old in
  if cap > slot_mask then failwith "Packet_pool: arena exhausted";
  let ints = Array.make (cap * stride) 0 in
  for i = 0 to (old * stride) - 1 do
    Array.unsafe_set ints i (Array.unsafe_get t.ints i)
  done;
  chain_free ints ~lo:old ~hi:cap;
  let floats = Array.make (cap * 2) 0.0 in
  Array.blit t.floats 0 floats 0 (old * 2);
  t.ints <- ints;
  t.floats <- floats;
  t.free_head <- old;
  t.capacity <- cap

let alloc ?(mark = 0) t ~flow ~seq ~size_bits ~arrival =
  (* one comparison pair that NaN and both infinities fail *)
  if not (size_bits > 0.0 && size_bits < infinity) then
    invalid_arg "Packet_pool.alloc: size must be positive and finite";
  if t.free_head < 0 then grow t;
  let slot = t.free_head in
  let ints = t.ints and c = slot * stride in
  t.free_head <- -4 - ints.(c + f_link);
  ints.(c + f_flow) <- flow;
  ints.(c + f_seq) <- seq;
  ints.(c + f_mark) <- mark;
  ints.(c + f_link) <- unqueued;
  t.floats.(2 * slot) <- size_bits;
  t.floats.((2 * slot) + 1) <- arrival;
  t.live <- t.live + 1;
  slot lor (ints.(c + f_gen) lsl slot_bits)

let[@inline] slot_of h = h land slot_mask
let[@inline] generation_of h = (h lsr slot_bits) land gen_mask

let stale () = invalid_arg "Packet_pool: stale handle"

(* The slot of a live handle. *)
let[@inline] check t h =
  let s = h land slot_mask in
  if h < 0 || s >= t.capacity
     || t.ints.((s * stride) + f_gen) <> (h lsr slot_bits) land gen_mask
  then stale ();
  s

let[@inline] live t h =
  h >= 0
  && h land slot_mask < t.capacity
  && t.ints.(((h land slot_mask) * stride) + f_gen) = (h lsr slot_bits) land gen_mask
  && t.ints.(((h land slot_mask) * stride) + f_link) >= unqueued

(* Past [check], a slot is below [capacity], so its cells are in bounds. *)
let[@inline] int_field t h f = Array.unsafe_get t.ints ((check t h * stride) + f)
let[@inline] flow t h = int_field t h f_flow
let[@inline] seq t h = int_field t h f_seq
let[@inline] mark t h = int_field t h f_mark
let[@inline] size_bits t h = Array.unsafe_get t.floats (2 * check t h)
let[@inline] arrival t h = Array.unsafe_get t.floats ((2 * check t h) + 1)

let free t h =
  let s = check t h in
  let c = s * stride in
  let ints = t.ints in
  let link = ints.(c + f_link) in
  if link <> unqueued then
    invalid_arg
      (if link >= tail then "Packet_pool.free: handle is queued"
       else "Packet_pool.free: double free");
  ints.(c + f_gen) <- (ints.(c + f_gen) + 1) land gen_mask;
  ints.(c + f_link) <- free_link t.free_head;
  t.free_head <- s;
  t.live <- t.live - 1

(* -- queue links: the [Queues] layer's, on handles it has validated -- *)

(* Every handle reaching these was validated by [Queues.push] (queued
   handles stay live: [free] refuses them), so its cells are in bounds. *)
let[@inline] link_cell h = ((h land slot_mask) * stride) + f_link
let[@inline] queued t h = Array.unsafe_get t.ints (link_cell h) >= tail

let[@inline] link_tail t ~last h =
  Array.unsafe_set t.ints (link_cell h) tail;
  if last >= 0 then Array.unsafe_set t.ints (link_cell last) h

let[@inline] unlink_head t h =
  let next = Array.unsafe_get t.ints (link_cell h) in
  Array.unsafe_set t.ints (link_cell h) unqueued;
  next

let[@inline] size_bits_unchecked t h = Array.unsafe_get t.floats (2 * (h land slot_mask))

(* Boundary materialisation: build the boxed view for observers, trace
   sinks and user hooks. [uid] is the handle — stable for the packet's
   lifetime and unique within the pool across a run. *)
let to_packet t h =
  let s = check t h in
  let c = s * stride in
  {
    Packet.uid = h;
    flow = t.ints.(c + f_flow);
    seq = t.ints.(c + f_seq);
    size_bits = t.floats.(2 * s);
    arrival = t.floats.((2 * s) + 1);
    mark = t.ints.(c + f_mark);
  }

let live_count t = t.live
let capacity t = t.capacity
