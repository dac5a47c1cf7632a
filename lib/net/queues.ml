(* Flat queue set. Queue [q] is the int cell [ints.(4q .. 4q+3)] = head,
   tail, length, drops and the float cell [floats.(2q .. 2q+1)] = bits,
   capacity; its packets are chained through their pool link words, head
   to tail. [bits] reads sizes from the pool and snaps to 0.0 whenever
   the queue empties, so float cancellation error cannot accumulate
   across busy periods. *)

module P = Packet_pool

let f_head = 0
let f_tail = 1
let f_len = 2
let f_drops = 3

type t = {
  pool : P.t;
  mutable ints : int array;
  mutable floats : float array;
  mutable count : int;
}

let init t q capacity_bits =
  if not (capacity_bits > 0.0) then invalid_arg "Queues: capacity must be positive";
  let c = 4 * q in
  t.ints.(c + f_head) <- P.none;
  t.ints.(c + f_tail) <- P.none;
  t.ints.(c + f_len) <- 0;
  t.ints.(c + f_drops) <- 0;
  t.floats.(2 * q) <- 0.0;
  t.floats.((2 * q) + 1) <- capacity_bits

let create ?(queues = 0) ~pool () =
  let n = max 1 queues in
  let t = { pool; ints = Array.make (4 * n) 0; floats = Array.make (2 * n) 0.0; count = queues } in
  for q = 0 to queues - 1 do
    init t q infinity
  done;
  t

let pool t = t.pool
let count t = t.count

(* Doubling copies the int cells in a typed loop: [Array.blit] into an
   int array in the major heap runs the write barrier per element. *)
let add ?(capacity_bits = infinity) t =
  let q = t.count in
  if 4 * (q + 1) > Array.length t.ints then begin
    let ints = Array.make (8 * q) 0 in
    for i = 0 to (4 * q) - 1 do
      Array.unsafe_set ints i (Array.unsafe_get t.ints i)
    done;
    let floats = Array.make (4 * q) 0.0 in
    Array.blit t.floats 0 floats 0 (2 * q);
    t.ints <- ints;
    t.floats <- floats
  end;
  init t q capacity_bits;
  t.count <- q + 1;
  q

let[@inline] length t q = t.ints.((4 * q) + f_len)
let[@inline] is_empty t q = t.ints.((4 * q) + f_len) = 0
let[@inline] bits t q = t.floats.(2 * q)
let drops t q = t.ints.((4 * q) + f_drops)

let reset ?(capacity_bits = infinity) t q =
  if q >= t.count then invalid_arg "Queues.reset: unknown queue";
  if not (is_empty t q) then invalid_arg "Queues.reset: queue not empty";
  init t q capacity_bits

let[@inline] push t q h =
  (* validates [h]; after this the pool trusts it *)
  let sz = P.size_bits t.pool h in
  if P.queued t.pool h then invalid_arg "Queues.push: handle already queued";
  let c = 4 * q in
  let b = t.floats.(2 * q) +. sz in
  if b > t.floats.((2 * q) + 1) then begin
    t.ints.(c + f_drops) <- t.ints.(c + f_drops) + 1;
    false
  end
  else begin
    let last = t.ints.(c + f_tail) in
    P.link_tail t.pool ~last h;
    if last < 0 then t.ints.(c + f_head) <- h;
    t.ints.(c + f_tail) <- h;
    t.ints.(c + f_len) <- t.ints.(c + f_len) + 1;
    t.floats.(2 * q) <- b;
    true
  end

let[@inline] peek_exn t q =
  let c = 4 * q in
  if t.ints.(c + f_len) = 0 then raise Queue.Empty;
  t.ints.(c + f_head)

let[@inline] pop_exn t q =
  let c = 4 * q in
  let len = t.ints.(c + f_len) in
  if len = 0 then raise Queue.Empty;
  let h = t.ints.(c + f_head) in
  let next = P.unlink_head t.pool h in
  t.ints.(c + f_head) <- next;
  t.ints.(c + f_len) <- len - 1;
  if len = 1 then begin
    t.ints.(c + f_tail) <- P.none;
    t.floats.(2 * q) <- 0.0
  end
  else t.floats.(2 * q) <- t.floats.(2 * q) -. P.size_bits_unchecked t.pool h;
  h

let drop_head t q = ignore (pop_exn t q : int)

(* Unchains every handle, WITHOUT freeing them: callers that want the
   cells recycled must drain with [pop_exn] and free each handle. *)
let clear t q =
  while not (is_empty t q) do
    drop_head t q
  done

let total_length t =
  let n = ref 0 in
  for q = 0 to t.count - 1 do
    n := !n + length t q
  done;
  !n
