(* Burst-drained execution and the trace layer.

   The burst-drain contract (Server/Hier/Hier_flat [burst_max]): departure
   order, times and every public clock are *bit-identical* at every cap —
   a departure only runs inline when it would have been the very next
   event anyway. Tested end-to-end through Netgraph.Pipeline here; the
   random-tree burst and streamed-replay relations are rows of
   test/lockstep.ml, run here.

   The trace layer: lossless CSV (%.17g round-trip, byte-stable re-save),
   the HPFQTRC2 binary format, format sniffing, malformed-input
   diagnostics, internet-mix determinism, and batched replay grouping. *)

module Sim = Engine.Simulator
module CT = Hpfq.Class_tree
module Trace = Traffic.Trace

let wf2q_plus = Hpfq.Disciplines.wf2q_plus

let with_temp_file f =
  let path = Filename.temp_file "hpfq_trace" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes)

(* ---- CSV: lossless floats, byte-stable re-save, diagnostics ---- *)

(* sorted upfront: save writes in time order, so load returns this order *)
let awkward_events =
  List.sort compare
    [
      { Trace.time = 0.1; leaf = "a"; size_bits = 1.0 /. 3.0 };
      { Trace.time = Float.pi *. 1e-7; leaf = "b"; size_bits = 320.0 };
      { Trace.time = 1.0 +. epsilon_float; leaf = "a"; size_bits = 0x1.fffffffffffffp+10 };
      { Trace.time = 2.0; leaf = "c/with odd-name?"; size_bits = 1e-300 };
      { Trace.time = 7.300000000000001; leaf = "b"; size_bits = 12_000.0 };
    ]

let test_csv_roundtrip () =
  with_temp_file (fun path ->
      Trace.save ~path awkward_events;
      let loaded = Trace.load ~path in
      Alcotest.(check bool) "floats survive exactly" true (loaded = awkward_events))

let test_csv_byte_stable () =
  with_temp_file (fun p1 ->
      with_temp_file (fun p2 ->
          Trace.save ~path:p1 awkward_events;
          Trace.save ~path:p2 (Trace.load ~path:p1);
          Alcotest.(check string) "save . load = identity on bytes"
            (read_file p1) (read_file p2)))

let write_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let expect_failure_mentioning ~parts f =
  match f () with
  | _ -> Alcotest.failf "expected Failure mentioning %s" (String.concat ", " parts)
  | exception Failure msg ->
    List.iter
      (fun part ->
        if not (contains_substring ~needle:part msg) then
          Alcotest.failf "message %S lacks %S" msg part)
      parts

let test_csv_malformed () =
  with_temp_file (fun path ->
      write_lines path [ "time,leaf,size_bits"; "0.5,a,100"; "0.7,b,oops" ];
      expect_failure_mentioning ~parts:[ "line 3"; "size_bits"; "oops" ] (fun () ->
          Trace.load ~path));
  with_temp_file (fun path ->
      write_lines path [ "time,leaf,size_bits"; "nope,a,100" ];
      expect_failure_mentioning ~parts:[ "line 2"; "time"; "nope" ] (fun () ->
          Trace.load ~path));
  with_temp_file (fun path ->
      write_lines path [ "time,leaf,size_bits"; "0.5,a" ];
      expect_failure_mentioning ~parts:[ "line 2"; "expected 3 fields" ] (fun () ->
          Trace.load ~path));
  with_temp_file (fun path ->
      write_lines path [ "when,who,how_big" ];
      expect_failure_mentioning ~parts:[ "line 1"; "bad header" ] (fun () ->
          Trace.load ~path));
  with_temp_file (fun path ->
      write_lines path [];
      expect_failure_mentioning ~parts:[ path; "line 1"; "empty file" ] (fun () ->
          Trace.load ~path));
  List.iter
    (fun (line, field, raw) ->
      with_temp_file (fun path ->
          write_lines path [ "time,leaf,size_bits"; "0.5,a,100"; line ];
          expect_failure_mentioning ~parts:[ path; "line 3"; field; raw ] (fun () ->
              Trace.load ~path)))
    [
      ("nan,a,100", "time", "nan");
      ("inf,a,100", "time", "inf");
      ("-0.5,a,100", "time", "-0.5");
      ("0.7,a,-1", "size_bits", "-1");
      ("0.7,a,-inf", "size_bits", "-inf");
      ("0.7,a,NaN", "size_bits", "NaN");
    ]

(* ---- binary v2: bit-exact round-trip, sniffing, diagnostics ---- *)

let test_binary_roundtrip () =
  with_temp_file (fun path ->
      Trace.save_binary ~path awkward_events;
      Alcotest.(check bool) "bit-exact round-trip" true
        (Trace.load_binary ~path = awkward_events));
  (* more records than one read block, and not a multiple of it *)
  let mix =
    Trace.internet_mix ~seed:3L ~leaves:[ "a"; "b"; "c" ] ~duration:1.0
      ~mean_pkts_per_leaf:3000.0 ()
  in
  Alcotest.(check bool) "spans several read blocks" true (List.length mix > 2 * 4096);
  with_temp_file (fun path ->
      Trace.save_binary ~path mix;
      Alcotest.(check bool) "multi-block round-trip" true (Trace.load_binary ~path = mix))

let test_load_any_sniffs () =
  with_temp_file (fun path ->
      Trace.save_binary ~path awkward_events;
      Alcotest.(check bool) "binary sniffed" true (Trace.load_any ~path = awkward_events));
  with_temp_file (fun path ->
      Trace.save ~path awkward_events;
      Alcotest.(check bool) "csv sniffed" true (Trace.load_any ~path = awkward_events))

let test_binary_malformed () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "HPFQTRC9________";
      close_out oc;
      expect_failure_mentioning ~parts:[ "bad magic" ] (fun () ->
          Trace.load_binary ~path));
  with_temp_file (fun path ->
      Trace.save_binary ~path awkward_events;
      (* drop the last byte: the record section length no longer matches *)
      let bytes = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub bytes 0 (String.length bytes - 1));
      close_out oc;
      expect_failure_mentioning ~parts:[ "record section" ] (fun () ->
          Trace.load_binary ~path));
  (* cut inside the leaf table: these escaped as a bare End_of_file *)
  with_temp_file (fun path ->
      Trace.save_binary ~path awkward_events;
      let bytes = read_file path in
      List.iter
        (fun (cut, what) ->
          write_file path (String.sub bytes 0 cut);
          expect_failure_mentioning ~parts:[ path; what ] (fun () -> Trace.load_binary ~path))
        (* header 16 bytes, then "b", "a" (3 bytes each) and a 16-byte name *)
        [
          (16, "leaf table of 3 entries is truncated");
          (23, "leaf 2 of 3: truncated name length");
          (29, "leaf 2 of 3: name of 16 bytes is truncated");
        ]);
  (* a leaf count far beyond the file is refused before any allocation *)
  with_temp_file (fun path ->
      Trace.save_binary ~path awkward_events;
      let bytes = Bytes.of_string (read_file path) in
      Bytes.set_int32_le bytes 8 0x7fff_ffffl;
      write_file path (Bytes.to_string bytes);
      expect_failure_mentioning ~parts:[ path; "leaf table" ] (fun () -> Trace.load_binary ~path));
  (* unusable times and sizes name the record (save sorts a NaN time first) *)
  List.iter
    (fun (e, parts) ->
      with_temp_file (fun path ->
          Trace.save_binary ~path [ { Trace.time = 0.25; leaf = "a"; size_bits = 8.0 }; e ];
          expect_failure_mentioning ~parts:(path :: parts) (fun () -> Trace.load_binary ~path)))
    [
      ({ Trace.time = Float.nan; leaf = "a"; size_bits = 8.0 }, [ "record 0"; "time"; "nan" ]);
      ({ Trace.time = infinity; leaf = "a"; size_bits = 8.0 }, [ "record 1"; "time"; "inf" ]);
      ({ Trace.time = 0.5; leaf = "a"; size_bits = -8.0 }, [ "record 1"; "size_bits"; "-8" ]);
      ( { Trace.time = 0.5; leaf = "a"; size_bits = Float.neg_infinity },
        [ "record 1"; "size_bits"; "-inf" ] );
    ]

(* ---- fuzz: load_any returns a list or fails naming the file ---- *)

let fuzz_load_any path =
  match Trace.load_any ~path with
  | (_ : Trace.event list) -> ()
  | exception Failure msg ->
    if not (contains_substring ~needle:path msg) then
      Alcotest.failf "Failure %S does not name the file" msg
  | exception e -> Alcotest.failf "escaped: %s" (Printexc.to_string e)

let test_fuzz_load_any () =
  let rng = Random.State.make [| 0x10ad; 7 |] in
  with_temp_file (fun path ->
      let write = write_file path in
      Trace.save_binary ~path awkward_events;
      let v2 = read_file path in
      (* every truncation of a v2 file *)
      for cut = 0 to String.length v2 do
        write (String.sub v2 0 cut);
        fuzz_load_any path
      done;
      (* random byte flips *)
      for _ = 1 to 2000 do
        let b = Bytes.of_string v2 in
        for _ = 1 to 1 + Random.State.int rng 3 do
          Bytes.set b (Random.State.int rng (Bytes.length b)) (Char.chr (Random.State.int rng 256))
        done;
        write (Bytes.to_string b);
        fuzz_load_any path
      done;
      (* random CSV garbage, with and without a valid header *)
      let alphabet = "0123456789.,-+eEinfaxp_\n\r\t abc" in
      for i = 1 to 2000 do
        let body =
          String.init (Random.State.int rng 80) (fun _ ->
              alphabet.[Random.State.int rng (String.length alphabet)])
        in
        write (if i mod 2 = 0 then "time,leaf,size_bits\n" ^ body else body);
        fuzz_load_any path
      done)

(* ---- internet mix: deterministic in the seed ---- *)

let test_internet_mix_deterministic () =
  let gen seed =
    Trace.internet_mix ~seed ~leaves:[ "a"; "b"; "c"; "d" ] ~duration:2.0
      ~mean_pkts_per_leaf:32.0 ()
  in
  Alcotest.(check bool) "same seed, same trace" true (gen 7L = gen 7L);
  Alcotest.(check bool) "different seed, different trace" false (gen 7L = gen 8L);
  let t = gen 7L in
  Alcotest.(check bool) "non-empty" true (t <> []);
  Alcotest.(check bool) "time-ordered" true
    (List.sort compare (List.map (fun e -> e.Trace.time) t)
    = List.map (fun e -> e.Trace.time) t);
  List.iter
    (fun e ->
      if e.Trace.size_bits < 320.0 || e.Trace.size_bits > 12_000.0 then
        Alcotest.failf "size %g outside the mix bounds" e.Trace.size_bits)
    t

(* ---- batched trace replay = per-event trace replay ---- *)

(* A trace with deliberate timestamp collisions across leaves: grouped
   scheduling must reproduce the per-event outcome exactly. *)
let test_batched_replay_grouping () =
  let trace =
    Trace.internet_mix ~seed:11L ~leaves:[ "a1"; "a2"; "b1"; "b2"; "b3" ]
      ~duration:1.0 ~mean_pkts_per_leaf:40.0 ()
  in
  let trace =
    (* collide timestamps: duplicate every 3rd event onto another leaf *)
    List.concat
      (List.mapi
         (fun i e ->
           if i mod 3 = 0 then [ e; { e with Trace.leaf = "b1" } ] else [ e ])
         trace)
  in
  let spec =
    CT.node "link" ~rate:20_000.0
      [
        CT.node "A" ~rate:12_000.0
          [ CT.leaf "a1" ~rate:8_000.0; CT.leaf "a2" ~rate:4_000.0 ];
        CT.node "B" ~rate:8_000.0
          [
            CT.leaf "b1" ~rate:4_000.0;
            CT.leaf "b2" ~rate:2_000.0;
            CT.leaf "b3" ~rate:2_000.0;
          ];
      ]
  in
  let s = Lockstep.fixed spec [ Lockstep.Install trace ] in
  let per_event = Lockstep.(run (cfg ~burst:8 Flat) s) in
  let grouped = Lockstep.(run (cfg ~burst:8 ~batched:true Flat) s) in
  Alcotest.(check int) "same arrivals scheduled" per_event.installed grouped.installed;
  Alcotest.(check (option string)) "identical outcomes" None (Lockstep.diff per_event grouped)

(* ---- streamed install = eager install, at the cursors' edges ---- *)

(* "ghost" is no leaf of [edge_spec]: its events have no emit *)
let edge_spec =
  CT.node "link" ~rate:4.0 [ CT.leaf "a" ~rate:2.0; CT.leaf "b" ~rate:1.0; CT.leaf "c" ~rate:1.0 ]

let ev time leaf = { Trace.time; leaf; size_bits = 1.0 }

let same_as_eager name trace =
  let s = Lockstep.fixed edge_spec [ Lockstep.Install trace ] in
  List.iter
    (fun (batched, burst) ->
      let eager = Lockstep.(run (cfg ~replay:`Eager ~batched ~burst Flat) s) in
      let streamed = Lockstep.(run (cfg ~batched ~burst Flat) s) in
      Alcotest.(check (option string))
        (Printf.sprintf "%s, batched=%b burst=%d" name batched burst)
        None (Lockstep.diff eager streamed))
    [ (false, 1); (true, 1); (false, 8); (true, 8) ]

let no_op_emit ~size_bits:_ = ()
let some_no_op = Some no_op_emit
let ghostly ~leaf = if leaf = "ghost" then None else some_no_op

let test_cursor_edges () =
  same_as_eager "ghosts inside an equal-time run"
    [ ev 1.0 "a"; ev 1.0 "ghost"; ev 1.0 "b"; ev 1.0 "ghost"; ev 1.0 "c"; ev 2.0 "a"; ev 2.0 "ghost" ];
  same_as_eager "a ghost of another time inside an equal-time run"
    [ ev 1.0 "a"; ev 1.0 "b"; ev 0.5 "ghost"; ev 1.0 "c"; ev 9.0 "ghost"; ev 2.0 "a" ];
  same_as_eager "only ghosts out of order"
    [ ev 0.5 "a"; ev 3.0 "ghost"; ev 1.0 "b"; ev 0.1 "ghost"; ev 1.0 "c"; ev 2.0 "a" ];
  same_as_eager "kept events out of order, with ties"
    [ ev 2.0 "a"; ev 1.0 "b"; ev 2.0 "c"; ev 1.0 "a"; ev 0.5 "ghost"; ev 1.0 "c"; ev 0.25 "b" ];
  same_as_eager "empty" [];
  same_as_eager "no event has an emit" [ ev 1.0 "ghost"; ev 0.5 "ghost" ];
  List.iter
    (fun (name, trace) ->
      List.iter
        (fun batched ->
          let sim = Sim.create () in
          Alcotest.(check int) (name ^ ": none installed") 0
            (Trace.replay ~batched ~sim ~emit_for:ghostly trace);
          Alcotest.(check int) (name ^ ": nothing pending") 0 (Sim.pending sim))
        [ false; true ])
    [ ("empty", []); ("no emit", [ ev 1.0 "ghost"; ev 0.5 "ghost" ]) ]

(* A bad kept time refuses the whole install; a ghost's time is never
   looked at. *)
let test_install_refusals () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:5.0 ignore);
  Sim.run ~until:2.0 sim;
  List.iter
    (fun batched ->
      let pending = Sim.pending sim in
      List.iter
        (fun (name, trace) ->
          (match Trace.replay ~batched ~sim ~emit_for:ghostly trace with
          | _ -> Alcotest.failf "%s (batched=%b): installed" name batched
          | exception Invalid_argument _ -> ());
          Alcotest.(check int) (name ^ ": pending unchanged") pending (Sim.pending sim))
        [
          ("first kept time before now", [ ev 1.0 "a"; ev 3.0 "b" ]);
          ("first kept time before now, after a ghost", [ ev 0.5 "ghost"; ev 1.5 "a"; ev 3.0 "b" ]);
          ("earliest kept time before now, unsorted", [ ev 3.0 "a"; ev 1.0 "b" ]);
          ("nan kept time", [ ev 3.0 "a"; ev Float.nan "b" ]);
          ("infinite kept time", [ ev 3.0 "a"; ev infinity "b" ]);
        ];
      Alcotest.(check int) "a ghost before now is skipped" 1
        (Trace.replay ~batched ~sim ~emit_for:ghostly
           [ ev 0.5 "ghost"; ev Float.nan "ghost"; ev 3.0 "a" ]))
    [ false; true ]

let test_emit_for_once () =
  List.iter
    (fun (order, trace, leaves) ->
      let calls = ref [] in
      let emit_for ~leaf =
        calls := leaf :: !calls;
        ghostly ~leaf
      in
      ignore (Trace.replay ~sim:(Sim.create ()) ~emit_for trace);
      Alcotest.(check (list string)) (order ^ ": once per leaf, first appearance first") leaves
        (List.rev !calls))
    [
      ( "sorted",
        [ ev 1.0 "c"; ev 1.0 "ghost"; ev 2.0 "a"; ev 2.0 "c"; ev 3.0 "ghost"; ev 4.0 "b" ],
        [ "c"; "ghost"; "a"; "b" ] );
      ( "unsorted",
        [ ev 2.0 "b"; ev 1.0 "ghost"; ev 1.0 "a"; ev 3.0 "b"; ev 0.5 "ghost"; ev 0.7 "c"; ev 4.0 "a" ],
        [ "b"; "ghost"; "a"; "c" ] );
    ]

(* Leaf resolution against a [Hashtbl] reference. 5,000 names of one
   length share their first and last 8 bytes and differ only in the
   middle; with "" and a ghost they make the install table grow several
   times. "" comes first, so later names' probes cross its cell: a table
   that marked an empty cell by its key would stop there. Then every
   name appears three times, in a fresh shuffle per round.
   The k-th [emit_for] call returns emit k, and every event has its own
   size, so the fired (emit, size) pairs name the emit each event got. *)
let test_leaf_resolution () =
  let names =
    Array.append [| ""; "ghost" |] (Array.init 5_000 (Printf.sprintf "leafhead%06dleaftail"))
  in
  let rng = Random.State.make [| 35 |] in
  let shuffled () =
    let a = Array.copy names in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let leaves = "" :: (shuffled () @ shuffled () @ shuffled ()) in
  let fresh s = String.init (String.length s) (String.get s) in
  let cases =
    List.concat_map
      (fun (order, time) ->
        List.map
          (fun (strings, copies) -> (order ^ ", " ^ strings, copies, time))
          [ ("shared strings", Fun.id); ("fresh copies", fresh) ])
      [
        ("sorted", fun i -> float_of_int (i / 3));
        ("unsorted", fun i -> float_of_int (i * 7919 mod 1009));
      ]
  in
  List.iter
    (fun (name, copies, time) ->
      let trace =
        List.mapi
          (fun i leaf ->
            { Trace.time = time i; leaf = copies leaf; size_bits = float_of_int i })
          leaves
      in
      let reference = Hashtbl.create 64 and first_seen = ref [] and n_emits = ref 0 in
      List.iter
        (fun e ->
          if not (Hashtbl.mem reference e.Trace.leaf) then begin
            first_seen := e.leaf :: !first_seen;
            Hashtbl.add reference e.leaf
              (if e.leaf = "ghost" then -1
               else begin
                 incr n_emits;
                 !n_emits - 1
               end)
          end)
        trace;
      let expected =
        List.stable_sort
          (fun a b -> Float.compare a.Trace.time b.Trace.time)
          (List.filter (fun e -> e.Trace.leaf <> "ghost") trace)
        |> List.map (fun e -> (Hashtbl.find reference e.Trace.leaf, e.size_bits))
      in
      let calls = ref [] and fired = ref [] and n_calls = ref 0 in
      let emit_for ~leaf =
        calls := leaf :: !calls;
        if leaf = "ghost" then None
        else begin
          let k = !n_calls in
          incr n_calls;
          Some (fun ~size_bits -> fired := (k, size_bits) :: !fired)
        end
      in
      let sim = Sim.create () in
      Alcotest.(check int) (name ^ ": installed") (List.length expected)
        (Trace.replay ~sim ~emit_for trace);
      Alcotest.(check (list string)) (name ^ ": emit_for once per leaf, first appearance first")
        (List.rev !first_seen) (List.rev !calls);
      Sim.run sim;
      if List.rev !fired <> expected then
        Alcotest.failf "%s: an event fired into another leaf's emit, or out of order" name)
    cases

(* ---- the replay's own footprint ---- *)

(* Words [f] allocates, minor and major. Not [Gc.allocated_bytes]: on
   OCaml 5.1 the minor count of [Gc.counters] adds the words allocated
   before the call a second time when a minor collection falls inside
   [f]; [Gc.minor_words] is exact. *)
let allocated_words f =
  let _, p0, j0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let _, p1, j1 = Gc.counters () in
  (r, w1 -. w0 +. (j1 -. j0) -. (p1 -. p0))

(* The list is the replay's state: install adds at most a 32-bit emit
   index per event beyond O(leaves), and firing allocates nothing beyond
   the event loop's clock. 64 or 4,096 leaves and a ghost, in runs of
   three equal times, so batching groups; at 4,096 the install table
   grows eight times inside the O(leaves) slack. *)
let test_footprint_ceiling () =
  let n = 120_000 in
  List.iter
    (fun leaves ->
      let names = Array.init leaves (Printf.sprintf "leaf%d") in
      let trace =
        List.init n (fun i ->
            let leaf = if i mod 17 = 0 then "ghost" else names.(i mod leaves) in
            { Trace.time = 1e-6 *. float_of_int (i / 3); leaf; size_bits = 8.0 })
      in
      let kept = List.length (List.filter (fun e -> e.Trace.leaf <> "ghost") trace) in
      let leaf_slack = 1024.0 *. float_of_int (leaves + 1) (* bytes *) in
      List.iter
        (fun batched ->
          let sim = Sim.create () in
          let installed, words =
            allocated_words (fun () -> Trace.replay ~batched ~sim ~emit_for:ghostly trace)
          in
          let install_bytes = words *. float_of_int (Sys.word_size / 8) in
          Alcotest.(check int) "kept events installed" kept installed;
          let per_event = (install_bytes -. leaf_slack) /. float_of_int n in
          if per_event > 5.0 then
            Alcotest.failf
              "%d leaves, batched=%b: install allocated %.0f bytes, %.2f per event beyond \
               O(leaves) > 5"
              leaves batched install_bytes per_event;
          let e0 = Sim.events_processed sim and w0 = Gc.minor_words () in
          Sim.run sim;
          let words = Gc.minor_words () -. w0 in
          Alcotest.(check int) "every arrival fired" 0 (Sim.pending sim);
          (* the event loop's own cost: [step] stores each fired event's
             time into the clock, a float field of a mixed record, so one
             2-word box per activation *)
          let replay_words = words -. (2.0 *. float_of_int (Sim.events_processed sim - e0)) in
          if replay_words > 64.0 then
            Alcotest.failf
              "%d leaves, batched=%b: firing %d arrivals allocated %.0f minor words beyond \
               the clock (%.4f each)"
              leaves batched installed replay_words
              (replay_words /. float_of_int installed))
        [ false; true ])
    [ 64; 4_096 ]

(* ---- pipeline: end-to-end delays identical at burst_max > 1 ---- *)

let test_pipeline_burst_invariance () =
  let hop_spec name =
    CT.node name ~rate:1.0
      [ CT.leaf (name ^ "/flow") ~rate:0.4; CT.leaf (name ^ "/cross") ~rate:0.6 ]
  in
  let run burst_max =
    let sim = Sim.create () in
    let deliveries = ref [] in
    let hops = List.init 3 (fun k -> (Printf.sprintf "h%d" k, hop_spec (Printf.sprintf "h%d" k))) in
    let p =
      Netgraph.Pipeline.create ~sim ~hops
        ~make_policy:(Hpfq.Hier.uniform wf2q_plus)
        ~propagation_delay:0.01
        ~on_deliver:(fun ~flow pkt ~injected ~delivered ->
          deliveries := (flow, pkt.Net.Packet.seq, injected, delivered) :: !deliveries)
        ~burst_max ()
    in
    Netgraph.Pipeline.add_flow p ~name:"f"
      ~route:(List.init 3 (fun k -> Printf.sprintf "h%d/flow" k));
    (* the guaranteed flow plus saturating cross traffic at every hop *)
    for i = 0 to 19 do
      ignore
        (Sim.schedule sim ~at:(0.37 *. float_of_int i) (fun () ->
             Netgraph.Pipeline.inject p ~flow:"f" ~size_bits:1.0))
    done;
    List.iteri
      (fun k _ ->
        let server = Netgraph.Pipeline.hop_server p (Printf.sprintf "h%d" k) in
        let leaf = Hpfq.Hier.leaf_id server (Printf.sprintf "h%d/cross" k) in
        ignore
          (Sim.schedule sim ~at:0.0 (fun () ->
               for _ = 1 to 40 do
                 ignore (Hpfq.Hier.inject server ~leaf ~size_bits:1.0)
               done)))
      hops;
    Sim.run ~until:60.0 sim;
    List.rev !deliveries
  in
  let reference = run 1 in
  Alcotest.(check int) "all packets delivered" 20 (List.length reference);
  List.iter
    (fun burst ->
      Alcotest.(check bool)
        (Printf.sprintf "burst_max=%d delivers identically" burst)
        true
        (run burst = reference))
    [ 2; 4; 64 ]

let () =
  Alcotest.run "replay"
  @@ Lockstep.with_rows
    [
      ( "trace_csv",
        [
          Alcotest.test_case "lossless roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "byte-stable re-save" `Quick test_csv_byte_stable;
          Alcotest.test_case "malformed diagnostics" `Quick test_csv_malformed;
        ] );
      ( "trace_binary",
        [
          Alcotest.test_case "bit-exact roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "load_any sniffs format" `Quick test_load_any_sniffs;
          Alcotest.test_case "malformed diagnostics" `Quick test_binary_malformed;
          Alcotest.test_case "load_any fuzz" `Quick test_fuzz_load_any;
        ] );
      ( "internet_mix",
        [
          Alcotest.test_case "deterministic in seed" `Quick
            test_internet_mix_deterministic;
        ] );
      ( "replay",
        [
          Alcotest.test_case "batched grouping = per-event" `Quick
            test_batched_replay_grouping;
          Alcotest.test_case "pipeline delays burst-invariant" `Quick
            test_pipeline_burst_invariance;
          Alcotest.test_case "cursor edges = eager" `Quick test_cursor_edges;
          Alcotest.test_case "install refusals" `Quick test_install_refusals;
          Alcotest.test_case "emit_for once per leaf" `Quick test_emit_for_once;
          Alcotest.test_case "leaf resolution = Hashtbl" `Quick test_leaf_resolution;
          Alcotest.test_case "footprint ceiling" `Quick test_footprint_ceiling;
        ] );
    ]
