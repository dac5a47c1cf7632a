(* Struct-of-arrays packet arena. A pooled packet is five flat-array cells
   (flow/seq/mark ints, size_bits/arrival floats) named by an int handle
   that packs the slot in its low 31 bits and the slot's allocation
   generation above it — the same encoding as [Sched.Session_handle] over
   its session arena. Handles are immediate ints: storing one in a FIFO
   ring, passing one through an engine, or comparing two allocates
   nothing. A boxed [Packet.t] is materialised only at API boundaries
   ([to_packet]), with [uid] = the handle itself, which is unique within a
   pool for the lifetime of a run (every [free] bumps the slot's
   generation, so a recycled slot yields a different handle; wrap-around
   needs 2^31 recycles of one slot).

   Thread-safety: a pool is single-domain. Engines that shard across
   Domains ([Hier_flat]'s epoch layer) confine alloc/free to the
   coordinator and let workers only read pooled fields of live handles,
   with the fork/join barrier as the happens-before edge. *)

type handle = int

let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl slot_bits) - 1

(* never produced by packing (slot and masked gen are non-negative) *)
let none : handle = -1

type t = {
  mutable flow : int array;
  mutable seq : int array;
  mutable mark : int array;
  mutable gen : int array;        (* current generation per slot *)
  mutable size_bits : float array;
  mutable arrival : float array;
  mutable next_free : int array;  (* freelist chaining; -1 terminates *)
  mutable free_head : int;        (* -1 = no free slot: next alloc grows *)
  mutable capacity : int;
  mutable live : int;
}

let create ?(initial_capacity = 64) () =
  if initial_capacity < 1 then
    invalid_arg "Packet_pool.create: capacity must be >= 1";
  let cap = initial_capacity in
  let next_free = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1) in
  {
    flow = Array.make cap 0;
    seq = Array.make cap 0;
    mark = Array.make cap 0;
    gen = Array.make cap 0;
    size_bits = Array.make cap 0.0;
    arrival = Array.make cap 0.0;
    next_free;
    free_head = 0;
    capacity = cap;
    live = 0;
  }

let grow t =
  let old = t.capacity in
  let cap = 2 * old in
  if cap > slot_mask then failwith "Packet_pool: arena exhausted";
  let extend_i a = Array.append a (Array.make old 0) in
  let extend_f a = Array.append a (Array.make old 0.0) in
  t.flow <- extend_i t.flow;
  t.seq <- extend_i t.seq;
  t.mark <- extend_i t.mark;
  t.gen <- extend_i t.gen;
  t.size_bits <- extend_f t.size_bits;
  t.arrival <- extend_f t.arrival;
  let nf = Array.make cap (-1) in
  Array.blit t.next_free 0 nf 0 old;
  for i = old to cap - 2 do
    nf.(i) <- i + 1
  done;
  t.next_free <- nf;
  t.free_head <- old;
  t.capacity <- cap

let alloc ?(mark = 0) t ~flow ~seq ~size_bits ~arrival =
  (* one comparison pair that NaN and both infinities fail *)
  if not (size_bits > 0.0 && size_bits < infinity) then
    invalid_arg "Packet_pool.alloc: size must be positive and finite";
  if t.free_head < 0 then grow t;
  let slot = t.free_head in
  t.free_head <- t.next_free.(slot);
  t.next_free.(slot) <- -2; (* not on the freelist: double-free detector *)
  t.flow.(slot) <- flow;
  t.seq.(slot) <- seq;
  t.mark.(slot) <- mark;
  t.size_bits.(slot) <- size_bits;
  t.arrival.(slot) <- arrival;
  t.live <- t.live + 1;
  slot lor (t.gen.(slot) lsl slot_bits)

let[@inline] slot_of h = h land slot_mask
let[@inline] generation_of h = (h lsr slot_bits) land gen_mask

let stale () = invalid_arg "Packet_pool: stale handle"

let[@inline] check t h =
  let s = h land slot_mask in
  if h < 0 || s >= t.capacity || t.gen.(s) <> (h lsr slot_bits) land gen_mask
  then stale ();
  s

let[@inline] live t h =
  h >= 0
  && h land slot_mask < t.capacity
  && t.gen.(h land slot_mask) = (h lsr slot_bits) land gen_mask
  && t.next_free.(h land slot_mask) = -2

let[@inline] flow t h = t.flow.(check t h)
let[@inline] seq t h = t.seq.(check t h)
let[@inline] mark t h = t.mark.(check t h)
let[@inline] size_bits t h = t.size_bits.(check t h)
let[@inline] arrival t h = t.arrival.(check t h)

let free t h =
  let s = check t h in
  if t.next_free.(s) <> -2 then invalid_arg "Packet_pool.free: double free";
  t.gen.(s) <- (t.gen.(s) + 1) land gen_mask;
  t.next_free.(s) <- t.free_head;
  t.free_head <- s;
  t.live <- t.live - 1

(* Boundary materialisation: build the boxed view for observers, trace
   sinks and user hooks. [uid] is the handle — stable for the packet's
   lifetime and unique within the pool across a run. *)
let to_packet t h =
  let s = check t h in
  {
    Packet.uid = h;
    flow = t.flow.(s);
    seq = t.seq.(s);
    size_bits = t.size_bits.(s);
    arrival = t.arrival.(s);
    mark = t.mark.(s);
  }

let live_count t = t.live
let capacity t = t.capacity
