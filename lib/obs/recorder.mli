(** Allocation-conscious ring buffer of trace events.

    Events live in struct-of-arrays storage (unboxed floats, no per-event
    record), so {!record} allocates nothing and an enabled trace perturbs
    the scheduler hot path as little as possible. {!Event.t} records are
    built only when the buffer is read back ({!iter} / {!to_list} /
    {!drain}). *)

type t

val create : ?capacity:int -> unit -> t
(** A ring of [capacity] events (default 65536): once full, each new
    event overwrites the oldest one, which counts as dropped.
    @raise Invalid_argument if [capacity <= 0]. *)

val record :
  t ->
  kind:Event.kind ->
  node:int ->
  session:int ->
  time:float ->
  vtime:float ->
  bits:float ->
  unit
(** Append an event, dropping the oldest when full. Allocation-free. *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events overwritten so far. *)

val get : t -> int -> Event.t
(** [get t i] is the [i]-th oldest retained event.
    @raise Invalid_argument out of range. *)

val iter : t -> (Event.t -> unit) -> unit
(** Oldest first. *)

val to_list : t -> Event.t list
val clear : t -> unit
(** Forget all retained events and reset the drop counter. *)

val drain : t -> Sink.t -> unit
(** Emit every retained event into the sink (oldest first), flush it, then
    {!clear}. *)
