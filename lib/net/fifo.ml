(* A one-queue [Queues] set: queue 0 is the FIFO. *)

type t = Queues.t

let create ?capacity_bits ~pool () =
  let t = Queues.create ~pool () in
  ignore (Queues.add ?capacity_bits t : int);
  t

let pool = Queues.pool
let[@inline] push t h = Queues.push t 0 h
let[@inline] peek_exn t = Queues.peek_exn t 0
let[@inline] pop_exn t = Queues.pop_exn t 0
let[@inline] drop_head t = Queues.drop_head t 0
let[@inline] length t = Queues.length t 0
let[@inline] bits t = Queues.bits t 0
let[@inline] is_empty t = Queues.is_empty t 0
let drops t = Queues.drops t 0
let clear t = Queues.clear t 0
