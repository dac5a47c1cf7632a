(** Pluggable event consumers.

    A sink is where drained trace events go: a JSON-lines stream, a CSV
    stream, an in-memory list, or nowhere. Sinks see events one at a time
    in trace order; name resolution (node/session ids → labels) is injected
    so the storage layer stays purely numeric. *)

type names = {
  node_label : int -> string;
  session_label : node:int -> session:int -> string;
}
(** Label functions applied at emission time. *)

type t

val emit : t -> Event.t -> unit
val flush : t -> unit

val null : t
(** Discards everything. *)

val memory : unit -> t * (unit -> Event.t list)
(** Accumulates events; the closure returns them in emission order. *)

val jsonl : ?names:names -> out_channel -> t
(** One compact JSON object per line:
    [{"ev":…,"t":…,"node":…,"session":…,"v":…,"bits":…}].
    Link-level events carry [null] session and [v]. The channel is flushed
    by {!flush}, never closed. *)

val csv : ?names:names -> out_channel -> t
(** Same fields as columns ([event,time,node,session,vtime,bits]); the
    header row is written immediately. Empty cells where JSONL has null. *)

val csv_header : string list
(** The CSV column names (shared with {!Trace.events_report}). *)

val csv_row : names -> Event.t -> string list
(** One event as CSV cells, in {!csv_header} order. *)
