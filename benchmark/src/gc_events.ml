(* GC busy time from the runtime's own event ring (traced runs only).

   Minor collections and major slices are timed per ring (one ring per
   domain). Phases of interest may nest, so only the outermost one counts;
   the sum over rings is the GC time of the whole process. The ring file
   goes to OCAML_RUNTIME_EVENTS_DIR, which the parent sets, and is
   removed when the process exits. *)

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  busy : int ref;
}

let gc_phase = function
  | Runtime_events.EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE -> true
  | _ -> false

let start () =
  Runtime_events.start ();
  let depth = Array.make 128 0 and since = Array.make 128 0 and busy = ref 0 in
  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
  let runtime_begin ring ts phase =
    if gc_phase phase then begin
      if depth.(ring) = 0 then since.(ring) <- ns ts;
      depth.(ring) <- depth.(ring) + 1
    end
  in
  let runtime_end ring ts phase =
    if gc_phase phase && depth.(ring) > 0 then begin
      depth.(ring) <- depth.(ring) - 1;
      if depth.(ring) = 0 then busy := !busy + (ns ts - since.(ring))
    end
  in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ();
    busy;
  }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

let busy_ns t =
  poll t;
  !(t.busy)
