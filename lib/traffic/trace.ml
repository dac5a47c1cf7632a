type event = { time : float; leaf : string; size_bits : float }

let compare_event a b = compare (a.time, a.leaf, a.size_bits) (b.time, b.leaf, b.size_bits)

(* %.17g prints the shortest-or-full decimal that parses back to the exact
   same float, so save -> load -> save is byte-stable. *)
let save ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "time,leaf,size_bits\n";
      List.iter
        (fun e -> Printf.fprintf oc "%.17g,%s,%.17g\n" e.time e.leaf e.size_bits)
        (List.stable_sort compare_event events))

(* A time or size a replay can use: finite and not negative. NaN fails
   both comparisons. *)
let usable v = v >= 0.0 && v < infinity

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let events = ref [] in
      let line_no = ref 1 in
      let fail fmt =
        Printf.ksprintf
          (fun m -> failwith (Printf.sprintf "Trace.load: %s, line %d: %s" path !line_no m))
          fmt
      in
      let field name line raw =
        match float_of_string_opt raw with
        | Some v when usable v -> v
        | Some _ -> fail "%s field %S is negative or not finite in %S" name raw line
        | None -> fail "bad %s field %S in %S" name raw line
      in
      (match input_line ic with
      | "time,leaf,size_bits" -> ()
      | header -> fail "bad header %S" header
      | exception End_of_file -> fail "empty file, expected the header time,leaf,size_bits");
      (try
         while true do
           let line = input_line ic in
           incr line_no;
           match String.split_on_char ',' line with
           | [ time; leaf; size ] ->
             events :=
               {
                 time = field "time" line time;
                 leaf;
                 size_bits = field "size_bits" line size;
               }
               :: !events
           | fields ->
             fail "expected 3 fields (time,leaf,size_bits), got %d in %S"
               (List.length fields) line
         done
       with End_of_file -> ());
      List.rev !events)

(* ---- binary format (v2) ------------------------------------------------ *)

(* Fixed-record layout, little-endian throughout:

     magic   "HPFQTRC2"                      8 bytes
     L       leaf-table entries              u32
     N       records                         u32
     L x     leaf name: u16 length + bytes   variable
     N x     f64 time | u32 leaf | f64 size  20 bytes each

   The record section is a flat array of 20-byte cells — seekable /
   mmap-friendly — with leaf names factored into the header table so a
   million-packet trace does not repeat a thousand flow names. *)

let binary_magic = "HPFQTRC2"
let record_bytes = 20

let save_binary ~path events =
  let events = List.stable_sort compare_event events in
  let leaf_index = Hashtbl.create 64 in
  let leaves = ref [] in
  let n_leaves = ref 0 in
  List.iter
    (fun e ->
      if not (Hashtbl.mem leaf_index e.leaf) then begin
        Hashtbl.add leaf_index e.leaf !n_leaves;
        leaves := e.leaf :: !leaves;
        incr n_leaves
      end)
    events;
  let leaves = List.rev !leaves in
  let n = List.length events in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc binary_magic;
      let b4 = Bytes.create 4 in
      let put_u32 v =
        Bytes.set_int32_le b4 0 (Int32.of_int v);
        output_bytes oc b4
      in
      put_u32 !n_leaves;
      put_u32 n;
      let b2 = Bytes.create 2 in
      List.iter
        (fun name ->
          if String.length name > 0xFFFF then
            invalid_arg ("Trace.save_binary: leaf name too long: " ^ name);
          Bytes.set_uint16_le b2 0 (String.length name);
          output_bytes oc b2;
          output_string oc name)
        leaves;
      let rec_buf = Bytes.create record_bytes in
      List.iter
        (fun e ->
          Bytes.set_int64_le rec_buf 0 (Int64.bits_of_float e.time);
          Bytes.set_int32_le rec_buf 8
            (Int32.of_int (Hashtbl.find leaf_index e.leaf));
          Bytes.set_int64_le rec_buf 12 (Int64.bits_of_float e.size_bits);
          output_bytes oc rec_buf)
        events)

let load_binary ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail fmt =
        Printf.ksprintf (fun m -> failwith ("Trace.load_binary: " ^ path ^ ": " ^ m)) fmt
      in
      let len = in_channel_length ic in
      if len < 16 then fail "truncated header (%d bytes)" len;
      let magic = really_input_string ic 8 in
      if not (String.equal magic binary_magic) then
        fail "bad magic %S (expected %S)" magic binary_magic;
      let b4 = Bytes.create 4 in
      let get_u32 what =
        really_input ic b4 0 4;
        let v = Int32.to_int (Bytes.get_int32_le b4 0) in
        if v < 0 then fail "negative %s count" what;
        v
      in
      let n_leaves = get_u32 "leaf" in
      let n = get_u32 "record" in
      (* every length below is checked against the file before it is read
         or allocated, so a corrupt count cannot raise End_of_file or ask
         for a huge array *)
      let remaining () = len - pos_in ic in
      if n_leaves > remaining () / 2 then
        fail "leaf table of %d entries is truncated (%d bytes left)" n_leaves (remaining ());
      let b2 = Bytes.create 2 in
      let leaves =
        Array.init n_leaves (fun i ->
            if remaining () < 2 then fail "leaf %d of %d: truncated name length" i n_leaves;
            really_input ic b2 0 2;
            let l = Bytes.get_uint16_le b2 0 in
            if remaining () < l then
              fail "leaf %d of %d: name of %d bytes is truncated" i n_leaves l;
            really_input_string ic l)
      in
      let remaining = remaining () in
      if remaining <> n * record_bytes then
        fail "record section is %d bytes, expected %d (%d records of %d)"
          remaining (n * record_bytes) n record_bytes;
      (* front to back: [@tail_mod_cons] builds the list in order, in
         constant stack, without a reversed copy. Records are read a block
         at a time: one channel read per record cost more than decoding it. *)
      let block = 4096 in
      let buf = Bytes.create (block * record_bytes) in
      let[@tail_mod_cons] rec decode i =
        if i = n then []
        else begin
          let off = i mod block * record_bytes in
          if off = 0 then really_input ic buf 0 (min block (n - i) * record_bytes);
          let time = Int64.float_of_bits (Bytes.get_int64_le buf off) in
          let leaf_idx = Int32.to_int (Bytes.get_int32_le buf (off + 8)) in
          let size_bits = Int64.float_of_bits (Bytes.get_int64_le buf (off + 12)) in
          if leaf_idx < 0 || leaf_idx >= n_leaves then
            fail "record %d references leaf %d of %d" i leaf_idx n_leaves;
          if not (usable time) then fail "record %d: time %g is negative or not finite" i time;
          if not (usable size_bits) then
            fail "record %d: size_bits %g is negative or not finite" i size_bits;
          let e = { time; leaf = leaves.(leaf_idx); size_bits } in
          e :: decode (i + 1)
        end
      in
      decode 0)

let load_any ~path =
  let ic = open_in_bin path in
  let is_binary =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        in_channel_length ic >= 8
        && String.equal (really_input_string ic 8) binary_magic)
  in
  if is_binary then load_binary ~path else load ~path

(* ---- synthetic "internet mix" workload --------------------------------- *)

(* Heavy-tailed sizes: a spike of minimum-size packets (TCP acks) over a
   bounded Pareto body — the classic bimodal-with-tail internet mix. *)
let mix_size rng =
  let min_bits = 320.0 (* 40 B *) and max_bits = 12_000.0 (* 1500 B *) in
  if Engine.Rng.uniform rng < 0.3 then min_bits
  else begin
    (* bounded Pareto, alpha = 1.2: inverse CDF over [min, max] *)
    let alpha = 1.2 in
    let u = Engine.Rng.uniform rng in
    let ratio = (min_bits /. max_bits) ** alpha in
    let x = min_bits /. ((1.0 -. (u *. (1.0 -. ratio))) ** (1.0 /. alpha)) in
    Float.min x max_bits
  end

let internet_mix ~seed ~leaves ~duration ?(mean_pkts_per_leaf = 64.0) () =
  if duration <= 0.0 then invalid_arg "Trace.internet_mix: duration must be positive";
  if mean_pkts_per_leaf <= 0.0 then
    invalid_arg "Trace.internet_mix: mean_pkts_per_leaf must be positive";
  let root = Engine.Rng.create seed in
  let events = ref [] in
  List.iteri
    (fun i leaf ->
      let rng = Engine.Rng.for_task root i in
      let emit time = events := { time; leaf; size_bits = mix_size rng } :: !events in
      if Engine.Rng.uniform rng < 0.6 then begin
        (* Poisson background flow *)
        let gap = duration /. mean_pkts_per_leaf in
        let t = ref (Engine.Rng.exponential rng ~mean:gap) in
        while !t < duration do
          emit !t;
          t := !t +. Engine.Rng.exponential rng ~mean:gap
        done
      end
      else begin
        (* on/off burst flow: same mean packet count concentrated into ON
           periods covering ~a quarter of the horizon, so bursts run at
           roughly 4x the background intensity *)
        let on_mean = duration /. 8.0 and off_mean = 3.0 *. duration /. 8.0 in
        let burst_gap = duration /. (4.0 *. mean_pkts_per_leaf) in
        let t = ref (Engine.Rng.exponential rng ~mean:off_mean) in
        while !t < duration do
          let on_end =
            Float.min duration (!t +. Engine.Rng.exponential rng ~mean:on_mean)
          in
          t := !t +. Engine.Rng.exponential rng ~mean:burst_gap;
          while !t < on_end do
            emit !t;
            t := !t +. Engine.Rng.exponential rng ~mean:burst_gap
          done;
          t := on_end +. Engine.Rng.exponential rng ~mean:off_mean
        done
      end)
    leaves;
  List.stable_sort compare_event !events

(* ---- capture / replay -------------------------------------------------- *)

let recorder ~sim =
  let events = ref [] in
  let wrap ~leaf emit ~size_bits =
    events := { time = Engine.Simulator.now sim; leaf; size_bits } :: !events;
    emit ~size_bits
  in
  let dump () = List.stable_sort compare_event (List.rev !events) in
  (wrap, dump)

(* A cursor over the trace list; [pos] is the head's position in it and
   [idx] holds each position's emit index, -1 for an event whose leaf has
   no emit. A cursor rests on an event with an emit, or at the end. *)
type cursor = { mutable rest : event list; mutable pos : int; idx : Bytes.t }

let[@inline] emit_index idx pos = Int32.to_int (Bytes.get_int32_le idx (4 * pos))

(* [c] on [rest], the list from position [pos], or past the events
   without an emit that [rest] starts with *)
let rec settle c rest pos =
  match rest with
  | _ :: tl when emit_index c.idx pos < 0 -> settle c tl (pos + 1)
  | _ ->
    c.rest <- rest;
    c.pos <- pos

(* past the head, and the events without an emit after it *)
let[@inline] next c = match c.rest with _ :: tl -> settle c tl (c.pos + 1) | [] -> ()

let[@inline] at_time c t = match c.rest with e :: _ -> e.time = t | [] -> false

(* The list itself is the replay's only per-arrival state: next to it,
   install keeps one 32-bit emit index per event (-1: the leaf has no
   emit, the event is skipped) and one table entry per distinct leaf.
   Two cursors walk the list: [time] gives the simulator stream the next
   activation's time, [fire] applies an activation's arrivals. Both read
   each time and size as the record's own box, so firing allocates
   nothing. *)
let replay ?(batched = false) ~sim ~emit_for events =
  let table = Hashtbl.create 64 and emits = ref [] and n_emits = ref 0 in
  (* [find], not [find_opt]: a hit allocates no option *)
  let resolve leaf =
    match Hashtbl.find table leaf with
    | i -> i
    | exception Not_found ->
      let i =
        match emit_for ~leaf with
        | None -> -1
        | Some emit ->
          emits := emit :: !emits;
          incr n_emits;
          !n_emits - 1
      in
      Hashtbl.add table leaf i;
      i
  in
  (* One pass: resolve each event's emit, check the kept times, and count
     the kept events and the activations (one per kept event, or per run
     of equal kept times when batched). *)
  let index events =
    let idx = Bytes.create (4 * List.length events) in
    let kept = ref 0 and activations = ref 0 and sorted = ref true in
    let prev = ref nan in
    List.iteri
      (fun pos e ->
        let i = resolve e.leaf in
        Bytes.set_int32_le idx (4 * pos) (Int32.of_int i);
        if i >= 0 then begin
          if not (usable e.time) then
            invalid_arg (Printf.sprintf "Trace.replay: time %g is negative or not finite" e.time);
          if !kept > 0 && not (!prev <= e.time) then sorted := false;
          if (not batched) || !kept = 0 || e.time <> !prev then incr activations;
          incr kept;
          prev := e.time
        end)
      events;
    (idx, !kept, !activations, !sorted)
  in
  (* eager scheduling fires by (time, list position): an unsorted list
     is replaced by its kept events, stable-sorted by time *)
  let events, (idx, kept, activations, _) =
    match index events with
    | (_, _, _, true) as scan -> (events, scan)
    | _ ->
      let events =
        List.stable_sort
          (fun a b -> Float.compare a.time b.time)
          (List.filter (fun e -> resolve e.leaf >= 0) events)
      in
      (events, index events)
  in
  let emits = Array.of_list (List.rev !emits) in
  (* [time k] leaves [times] on activation k + 1's first event; [fire k]
     finds activation k's first event under [arrivals] *)
  let times = { rest = events; pos = 0; idx } and arrivals = { rest = events; pos = 0; idx } in
  settle times events 0;
  settle arrivals events 0;
  let time _ =
    match times.rest with
    | [] -> assert false (* [activations] counted every call *)
    | e :: _ ->
      next times;
      if batched then while at_time times e.time do next times done;
      e.time
  in
  let fire _ =
    match arrivals.rest with
    | [] -> assert false
    | first :: _ ->
      let more = ref true in
      while !more do
        match arrivals.rest with
        | [] -> assert false
        | e :: _ ->
          let emit = emits.(emit_index idx arrivals.pos) in
          next arrivals;
          emit ~size_bits:e.size_bits;
          more := batched && at_time arrivals first.time
      done
  in
  Engine.Simulator.stream sim ~n:activations ~time fire;
  kept
