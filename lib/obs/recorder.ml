(* Struct-of-arrays ring: one byte + two ints + three unboxed floats per
   event, no per-event record. [record] therefore allocates nothing — the
   enabled-tracing hot path costs a handful of array stores. Event.t
   records only materialise on iteration/export. When full, the oldest
   event is overwritten and counted as dropped. *)
type t = {
  kinds : Bytes.t;
  nodes : int array;
  sessions : int array;
  times : float array;
  vtimes : float array;
  bits : float array;
  mutable head : int; (* slot of the oldest retained event *)
  mutable len : int;
  mutable dropped : int;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  {
    kinds = Bytes.create capacity;
    nodes = Array.make capacity 0;
    sessions = Array.make capacity 0;
    times = Array.make capacity 0.0;
    vtimes = Array.make capacity 0.0;
    bits = Array.make capacity 0.0;
    head = 0;
    len = 0;
    dropped = 0;
  }

let length t = t.len
let capacity t = Bytes.length t.kinds
let dropped t = t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let record t ~kind ~node ~session ~time ~vtime ~bits =
  let cap = capacity t in
  if t.len = cap then begin
    t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
    t.len <- t.len - 1;
    t.dropped <- t.dropped + 1
  end;
  let slot = t.head + t.len in
  let slot = if slot >= cap then slot - cap else slot in
  Bytes.unsafe_set t.kinds slot (Event.kind_code kind);
  Array.unsafe_set t.nodes slot node;
  Array.unsafe_set t.sessions slot session;
  Array.unsafe_set t.times slot time;
  Array.unsafe_set t.vtimes slot vtime;
  Array.unsafe_set t.bits slot bits;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Recorder.get: index out of range";
  let cap = capacity t in
  let slot = t.head + i in
  let slot = if slot >= cap then slot - cap else slot in
  {
    Event.kind = Event.kind_of_code (Bytes.get t.kinds slot);
    node = t.nodes.(slot);
    session = t.sessions.(slot);
    time = t.times.(slot);
    vtime = t.vtimes.(slot);
    bits = t.bits.(slot);
  }

let iter t f =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := get t i :: !acc
  done;
  !acc

let drain t sink =
  iter t (Sink.emit sink);
  Sink.flush sink;
  clear t
