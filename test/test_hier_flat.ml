(* Flat H-WF2Q+ engine: lockstep differential against the generic [Hier]
   reference, engine-facade selection, and the batched-arrival surface.

   The flat engine promises *bit-identical* behaviour to
   [Hier.create ~make_policy:(Hier.uniform wf2q_plus)] — same departure
   order and times, same per-node W_n / T_n / V clocks, same observer
   stamps. Every comparison below is exact float equality, no tolerance. *)

module Q = QCheck
module Sim = Engine.Simulator
module Hier = Hpfq.Hier
module HF = Hpfq.Hier_flat
module HE = Hpfq.Hier_engine
module CT = Hpfq.Class_tree

let wf2q_plus = Hpfq.Disciplines.wf2q_plus

(* ---- random trees (depth <= 6, fan-out <= 8) + arrival programs ---- *)

type scenario = {
  spec : CT.t;
  leaves : string list;
  packets : (float * int * float) list; (* (time, leaf index, size_bits) *)
  root_ref : bool; (* drive the root on `Reference_time *)
}

let scenario_gen rng =
  let budget = ref 48 in
  let fresh = ref 0 in
  let rec gen ~depth rate =
    decr budget;
    let name =
      let id = !fresh in
      incr fresh;
      Printf.sprintf "n%d" id
    in
    let leaf () =
      let cap =
        if Random.State.int rng 6 = 0 then Some (1.0 +. Random.State.float rng 6.0)
        else None
      in
      CT.leaf ?queue_capacity_bits:cap name ~rate
    in
    if depth >= 5 || !budget <= 0 || (depth > 0 && Random.State.int rng 3 = 0) then
      leaf ()
    else begin
      let k = min (1 + Random.State.int rng 8) (max 1 !budget) in
      let weights = Array.init k (fun _ -> 0.2 +. Random.State.float rng 0.8) in
      let total = Array.fold_left ( +. ) 0.0 weights in
      (* children sum to strictly less than the parent so validate passes
         whatever the float rounding *)
      let scale = 0.999 *. rate /. total in
      CT.node name ~rate
        (List.init k (fun i -> gen ~depth:(depth + 1) (weights.(i) *. scale)))
    end
  in
  (* force an interior root: [gen] at depth 0 never returns a leaf *)
  let spec = gen ~depth:0 1.0 in
  let leaves = List.map fst (CT.leaves spec) in
  let n_packets = 1 + Random.State.int rng 120 in
  let packets =
    List.init n_packets (fun _ ->
        ( Random.State.float rng 12.0,
          Random.State.int rng (List.length leaves),
          0.1 +. Random.State.float rng 1.9 ))
  in
  { spec; leaves; packets; root_ref = Random.State.int rng 4 = 0 }

let print_scenario s =
  Format.asprintf "root_ref=%b@ %a@ packets=[%s]" s.root_ref CT.pp s.spec
    (String.concat "; "
       (List.map (fun (t, l, z) -> Printf.sprintf "(%h,%d,%h)" t l z) s.packets))

let rec node_names spec =
  CT.name spec :: List.concat_map node_names (CT.children spec)

let rec interior_names spec =
  if CT.is_leaf spec then []
  else CT.name spec :: List.concat_map interior_names (CT.children spec)

(* Everything observable through the public surface, with exact floats:
   departures in order, drops, and per-node W_n / T_n / V at the end.
   [policy] is the generic engine's per-node discipline. *)
let replay ?(policy = wf2q_plus) engine s =
  let sim = Sim.create () in
  let log = ref [] in
  let on_depart pkt ~leaf t = log := (leaf, pkt.Net.Packet.seq, t) :: !log in
  let root_clock = if s.root_ref then `Reference_time else `Real_time in
  let h =
    match engine with
    | `Generic ->
      HE.Generic
        (Hier.create ~sim ~spec:s.spec ~make_policy:(Hier.uniform policy)
           ~root_clock ~on_depart ())
    | `Flat -> HE.Flat (HF.create ~sim ~spec:s.spec ~root_clock ~on_depart ())
  in
  let ids = Array.of_list (List.map (HE.leaf_id h) s.leaves) in
  List.iter
    (fun (at, leaf, size) ->
      ignore
        (Sim.schedule sim ~at (fun () ->
             ignore (HE.inject h ~leaf:ids.(leaf) ~size_bits:size))))
    s.packets;
  Sim.run sim;
  let clocks =
    List.map
      (fun n -> (n, HE.departed_bits h ~node:n, HE.ref_time h ~node:n))
      (node_names s.spec)
  in
  let vtimes =
    List.map (fun n -> (n, HE.node_virtual_time h ~node:n)) (interior_names s.spec)
  in
  (List.rev !log, HE.drops h, clocks, vtimes)

let prop_lockstep =
  Q.Test.make ~count:500 ~name:"flat engine replays generic bit-for-bit"
    (Q.make scenario_gen ~print:print_scenario)
    (fun s -> replay `Generic s = replay `Flat s)

(* ---- fixed-point lockstep: an oracle that shares no code with the kernel ---- *)

(* Generic [Hier] over the int-tick [Wf2q_plus_fixed] against the flat
   engine. Trees are dyadic — every rate a power of two, sizes whole bits,
   arrival times on a 2^-10 grid — so every stamp, clock and V is exact in
   both the float and the tick domain (the domain of test_lifecycle's
   one-level differential), and equality is exact, no tolerance. *)
let dyadic_scenario_gen rng =
  let budget = ref 40 in
  let fresh = ref 0 in
  let rec gen ~depth rate =
    decr budget;
    let name =
      let id = !fresh in
      incr fresh;
      Printf.sprintf "n%d" id
    in
    if depth >= 4 || !budget <= 0 || (depth > 0 && Random.State.int rng 3 = 0) then
      let cap =
        if Random.State.int rng 6 = 0 then Some (float_of_int (1 + Random.State.int rng 8))
        else None
      in
      CT.leaf ?queue_capacity_bits:cap name ~rate
    else begin
      let k = min (1 + Random.State.int rng 4) (max 1 !budget) in
      (* each child gets rate / 2^j with 2^j >= k, so the children's
         powers of two sum to at most the parent's rate *)
      let j0 = if k <= 1 then 0 else if k <= 2 then 1 else 2 in
      CT.node name ~rate
        (List.init k (fun _ ->
             let j = j0 + Random.State.int rng 2 in
             gen ~depth:(depth + 1) (Float.ldexp rate (-j))))
    end
  in
  let spec = gen ~depth:0 1.0 in
  let leaves = List.map fst (CT.leaves spec) in
  let n_packets = 1 + Random.State.int rng 120 in
  let packets =
    List.init n_packets (fun _ ->
        ( float_of_int (Random.State.int rng (12 * 1024)) /. 1024.0,
          Random.State.int rng (List.length leaves),
          float_of_int (1 + Random.State.int rng 4) ))
  in
  { spec; leaves; packets; root_ref = Random.State.int rng 4 = 0 }

let prop_fixed_lockstep =
  Q.Test.make ~count:300 ~name:"flat engine replays generic over WF2Q+fx bit-for-bit"
    (Q.make dyadic_scenario_gen ~print:print_scenario)
    (fun s ->
      replay ~policy:Hpfq.Disciplines.wf2q_plus_fixed `Generic s = replay `Flat s)

(* ---- observer-stamp parity: identical event streams ---- *)

let fig3ish =
  CT.node "link" ~rate:1.0
    [
      CT.node "A" ~rate:0.6 [ CT.leaf "a1" ~rate:0.4; CT.leaf "a2" ~rate:0.2 ];
      CT.node "B" ~rate:0.4
        [ CT.leaf "b1" ~rate:0.2; CT.leaf "b2" ~rate:0.1; CT.leaf "b3" ~rate:0.1 ];
    ]

let traced_events engine =
  let sim = Sim.create () in
  let h =
    match engine with
    | `Generic ->
      HE.Generic
        (Hier.create ~sim ~spec:fig3ish ~make_policy:(Hier.uniform wf2q_plus) ())
    | `Flat -> HE.Flat (HF.create ~sim ~spec:fig3ish ())
  in
  let trace = Obs.Trace.attach_engine h in
  let leaves = Array.of_list (List.map snd (HE.leaf_ids h)) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         Array.iteri
           (fun i leaf ->
             for _ = 1 to 3 + i do
               ignore (HE.inject h ~leaf ~size_bits:(1.0 +. (0.25 *. float_of_int i)))
             done)
           leaves));
  ignore
    (Sim.schedule sim ~at:7.5 (fun () ->
         ignore (HE.inject h ~leaf:leaves.(0) ~size_bits:0.5)));
  Sim.run sim;
  Obs.Trace.events trace

let test_trace_parity () =
  let g = traced_events `Generic and f = traced_events `Flat in
  Alcotest.(check int) "same event count" (List.length g) (List.length f);
  (* [compare] rather than [=]: link-level events stamp vtime = NaN *)
  Alcotest.(check bool) "identical event streams" true (compare g f = 0)

(* ---- deep chain (depth 8) golden regression ---- *)

let deep_spec =
  let rec chain k inner =
    if k = 0 then inner else chain (k - 1) (CT.node (Printf.sprintf "c%d" k) ~rate:1.0 [ inner ])
  in
  CT.node "root" ~rate:1.0
    [
      chain 6
        (CT.node "c7" ~rate:1.0 [ CT.leaf "x" ~rate:0.75; CT.leaf "y" ~rate:0.25 ]);
    ]

let deep_run engine =
  let sim = Sim.create () in
  let log = ref [] in
  let on_depart _ ~leaf t = log := (leaf, t) :: !log in
  let h =
    match engine with
    | `Generic ->
      HE.Generic
        (Hier.create ~sim ~spec:deep_spec ~make_policy:(Hier.uniform wf2q_plus)
           ~on_depart ())
    | `Flat -> HE.Flat (HF.create ~sim ~spec:deep_spec ~on_depart ())
  in
  let x = HE.leaf_id h "x" and y = HE.leaf_id h "y" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 4 do
           ignore (HE.inject h ~leaf:x ~size_bits:1.0)
         done;
         for _ = 1 to 2 do
           ignore (HE.inject h ~leaf:y ~size_bits:1.5)
         done));
  ignore
    (Sim.schedule sim ~at:8.25 (fun () -> ignore (HE.inject h ~leaf:y ~size_bits:0.5)));
  Sim.run sim;
  List.rev !log

(* The WF2Q+ schedule for this program, pinned from the audited generic
   engine: x (share 0.75) and y (share 0.25) interleave by eligible finish
   tags, and the depth-6 interior chain must be transparent (single-child
   nodes add no scheduling freedom). *)
let deep_golden =
  [
    ("x", 1.0);
    ("y", 2.5);
    ("x", 3.5);
    ("x", 4.5);
    ("x", 5.5);
    ("y", 7.0);
    ("y", 8.75);
  ]

let test_deep_chain_golden () =
  let pairs = Alcotest.(list (pair string (float 1e-9))) in
  Alcotest.check pairs "generic matches golden" deep_golden (deep_run `Generic);
  Alcotest.check pairs "flat matches golden" deep_golden (deep_run `Flat);
  Alcotest.(check bool) "flat = generic exactly" true
    (deep_run `Generic = deep_run `Flat)

(* ---- Wf2q_plus_stamped spot-check at the root ---- *)

(* On a one-level tree the flat engine's root is a standalone WF2Q+; the
   per-packet-stamped ablation (independent implementation of the same
   fluid system) must schedule every packet within one max-packet
   transmission time of it (the bound test_wf2q_plus pins for the pair). *)
let test_stamped_root_spot_check () =
  let spec =
    CT.node "root" ~rate:1.0
      [ CT.leaf "s0" ~rate:0.5; CT.leaf "s1" ~rate:0.3; CT.leaf "s2" ~rate:0.2 ]
  in
  let run mk =
    let sim = Sim.create () in
    let log = ref [] in
    let on_depart pkt ~leaf t = log := ((leaf, pkt.Net.Packet.seq), t) :: !log in
    let h = mk sim on_depart in
    let leaves = List.map snd (HE.leaf_ids h) in
    ignore
      (Sim.schedule sim ~at:0.0 (fun () ->
           List.iter
             (fun leaf ->
               for _ = 1 to 6 do
                 ignore (HE.inject h ~leaf ~size_bits:1.0)
               done)
             leaves));
    Sim.run sim;
    List.rev !log
  in
  let flat = run (fun sim on_depart -> HE.Flat (HF.create ~sim ~spec ~on_depart ())) in
  let stamped =
    run (fun sim on_depart ->
        HE.Generic
          (Hier.create ~sim ~spec
             ~make_policy:(Hier.uniform Hpfq.Wf2q_plus_stamped.factory)
             ~on_depart ()))
  in
  let by_key log = List.sort compare log in
  let max_pkt_time = 1.0 /. 1.0 in
  List.iter2
    (fun (k1, t1) (k2, t2) ->
      Alcotest.(check (pair string int)) "same packets served" k1 k2;
      Alcotest.(check bool)
        (Printf.sprintf "within one packet time (%.3f vs %.3f)" t1 t2)
        true
        (Float.abs (t1 -. t2) <= max_pkt_time +. 1e-9))
    (by_key flat) (by_key stamped)

(* ---- surface: leaf_id errors, facade selection, inject_many ---- *)

let test_flat_leaf_lookup () =
  let sim = Sim.create () in
  let h = HF.create ~sim ~spec:fig3ish () in
  Alcotest.(check string) "leaf roundtrip" "b2" (HF.leaf_name h (HF.leaf_id h "b2"));
  Alcotest.(check int) "five leaves" 5 (List.length (HF.leaf_ids h));
  Alcotest.(check bool) "interior name is Invalid_argument" true
    (try
       ignore (HF.leaf_id h "A");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown name is Not_found" true
    (try
       ignore (HF.leaf_id h "zzz");
       false
     with Not_found -> true)

let test_engine_selection () =
  let sim = Sim.create () in
  let mk ?engine factory =
    HE.create ~sim ~spec:fig3ish ~factory ?engine ()
  in
  Alcotest.(check bool) "auto picks flat for WF2Q+" true
    (HE.kind (mk wf2q_plus) = `Flat);
  Alcotest.(check bool) "auto falls back to generic for WFQ" true
    (HE.kind (mk Hpfq.Disciplines.wfq) = `Generic);
  Alcotest.(check bool) "generic can be forced" true
    (HE.kind (mk ~engine:`Generic wf2q_plus) = `Generic);
  Alcotest.(check bool) "flat rejects non-WF2Q+" true
    (try
       ignore (mk ~engine:`Flat Hpfq.Disciplines.wfq);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (result string string)) "choice parser" (Ok "flat")
    (Result.map HE.choice_to_string (HE.choice_of_string "flat"));
  Alcotest.(check bool) "choice parser rejects junk" true
    (Result.is_error (HE.choice_of_string "fast"))

let test_inject_many () =
  let run inject_fn =
    let sim = Sim.create () in
    let log = ref [] in
    let h =
      HF.create ~sim ~spec:fig3ish
        ~on_depart:(fun pkt ~leaf t -> log := (leaf, pkt.Net.Packet.seq, t) :: !log)
        ()
    in
    let a1 = HF.leaf_id h "a1" and b1 = HF.leaf_id h "b1" in
    ignore
      (Sim.schedule sim ~at:0.0 (fun () ->
           inject_fn h ~leaf:a1 ~size_bits:1.0 ~count:10;
           inject_fn h ~leaf:b1 ~size_bits:0.5 ~count:4));
    Sim.run sim;
    List.rev !log
  in
  let looped =
    run (fun h ~leaf ~size_bits ~count ->
        for _ = 1 to count do
          ignore (HF.inject h ~leaf ~size_bits)
        done)
  in
  let batched = run (fun h ~leaf ~size_bits ~count -> HF.inject_many h ~leaf ~size_bits ~count) in
  Alcotest.(check (list (triple string int (float 0.0))))
    "inject_many = repeated inject" looped batched

let test_flat_rejects_leaf_root () =
  let sim = Sim.create () in
  Alcotest.(check bool) "bare-leaf spec rejected" true
    (try
       ignore (HF.create ~sim ~spec:(CT.leaf "only" ~rate:1.0) ());
       false
     with Invalid_argument _ -> true)

let () =
  let seeded = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xf1a7; 42 |]) in
  Alcotest.run "hier_flat"
    [
      ("lockstep", [ seeded prop_lockstep; seeded prop_fixed_lockstep ]);
      ( "parity",
        [
          Alcotest.test_case "trace event streams identical" `Quick test_trace_parity;
          Alcotest.test_case "deep chain golden" `Quick test_deep_chain_golden;
          Alcotest.test_case "stamped root spot check" `Quick
            test_stamped_root_spot_check;
        ] );
      ( "surface",
        [
          Alcotest.test_case "leaf lookup errors" `Quick test_flat_leaf_lookup;
          Alcotest.test_case "engine selection" `Quick test_engine_selection;
          Alcotest.test_case "inject_many" `Quick test_inject_many;
          Alcotest.test_case "leaf root rejected" `Quick test_flat_rejects_leaf_root;
        ] );
    ]
