(* Packet_pool handle lifecycle: generation staleness, freelist reuse and
   double-free detection (mirroring test_lifecycle.ml's session-pool
   coverage), plus multi-Domain uid uniqueness for the boxed Packet.make
   counter. The boxed-vs-pooled row of test/lockstep.ml runs here. *)

module P = Net.Packet_pool

let alloc pool ?(flow = 0) ?(seq = 1) ?(bits = 100.0) () =
  P.alloc pool ~flow ~seq ~size_bits:bits ~arrival:0.0

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_field_reads () =
  let pool = P.create () in
  let h = P.alloc pool ~mark:3 ~flow:7 ~seq:42 ~size_bits:1500.0 ~arrival:2.5 in
  Alcotest.(check int) "flow" 7 (P.flow pool h);
  Alcotest.(check int) "seq" 42 (P.seq pool h);
  Alcotest.(check int) "mark" 3 (P.mark pool h);
  Alcotest.(check (float 0.0)) "size" 1500.0 (P.size_bits pool h);
  Alcotest.(check (float 0.0)) "arrival" 2.5 (P.arrival pool h);
  Alcotest.(check bool) "live" true (P.live pool h);
  Alcotest.(check int) "live_count" 1 (P.live_count pool)

let test_rejects_empty () =
  let pool = P.create () in
  List.iter
    (fun bits ->
      Alcotest.(check bool) (Printf.sprintf "size %g rejected" bits) true
        (raises_invalid (fun () -> ignore (alloc pool ~bits ()))))
    [ 0.0; -1.0; nan; infinity; neg_infinity ];
  Alcotest.(check int) "nothing allocated" 0 (P.live_count pool)

(* A bad size fails at the engine's inject, before any policy stamps it:
   the engine then serves a good packet as if the bad ones never came. *)
let test_engines_reject_non_finite () =
  let module Sim = Engine.Simulator in
  let module CT = Hpfq.Class_tree in
  let spec = CT.node "link" ~rate:1.0 [ CT.leaf "a" ~rate:0.5; CT.leaf "b" ~rate:0.5 ] in
  let engines =
    [
      ( "Server",
        fun sim log ->
          let srv, hs =
            Hpfq.Schedulers.server ~sim ~rate:1.0 ~initial_sessions:[| 0.5; 0.5 |]
              ~on_depart:(fun _ t -> log := t :: !log)
              Hpfq.Disciplines.wf2q_plus ()
          in
          ( (fun size_bits -> ignore (Hpfq.Server.inject_handle srv ~handle:hs.(0) ~size_bits)),
            Hpfq.Server.pool srv ) );
      ( "Hier",
        fun sim log ->
          let h =
            Hpfq.Hier.create ~sim ~spec
              ~make_policy:(Hpfq.Hier.uniform Hpfq.Disciplines.wf2q_plus)
              ~on_depart:(fun _ ~leaf:_ t -> log := t :: !log)
              ()
          in
          let leaf = Hpfq.Hier.leaf_id h "a" in
          ((fun size_bits -> ignore (Hpfq.Hier.inject h ~leaf ~size_bits)), Hpfq.Hier.pool h) );
      ( "Hier_flat",
        fun sim log ->
          let h =
            Hpfq.Hier_flat.create ~sim ~spec ~on_depart:(fun _ ~leaf:_ t -> log := t :: !log) ()
          in
          let leaf = Hpfq.Hier_flat.leaf_id h "a" in
          ( (fun size_bits -> ignore (Hpfq.Hier_flat.inject h ~leaf ~size_bits)),
            Hpfq.Hier_flat.pool h ) );
    ]
  in
  List.iter
    (fun (name, make) ->
      let sim = Sim.create () and log = ref [] in
      let inject, pool = make sim log in
      ignore
        (Sim.schedule sim ~at:0.0 (fun () ->
             List.iter
               (fun bits ->
                 Alcotest.(check bool) (Printf.sprintf "%s: size %g rejected" name bits) true
                   (raises_invalid (fun () -> inject bits)))
               [ nan; infinity; neg_infinity; 0.0 ];
             inject 1.0));
      Sim.run sim;
      Alcotest.(check (list (float 0.0))) (name ^ ": only the good packet departs") [ 1.0 ] !log;
      Alcotest.(check int) (name ^ ": no handle left live") 0 (P.live_count pool))
    engines

let test_generation_staleness () =
  let pool = P.create () in
  let h = alloc pool ~seq:1 () in
  P.free pool h;
  Alcotest.(check bool) "stale after free" false (P.live pool h);
  Alcotest.(check bool) "read raises" true
    (raises_invalid (fun () -> ignore (P.seq pool h)));
  (* the recycled slot's new allocation is a distinct handle *)
  let h' = alloc pool ~seq:2 () in
  Alcotest.(check int) "slot recycled" (P.slot_of h) (P.slot_of h');
  Alcotest.(check bool) "generation bumped" true
    (P.generation_of h' > P.generation_of h);
  Alcotest.(check bool) "handles differ" true (h <> h');
  Alcotest.(check bool) "old handle still stale" false (P.live pool h);
  Alcotest.(check int) "new handle reads fresh fields" 2 (P.seq pool h')

let test_double_free () =
  let pool = P.create () in
  let h = alloc pool () in
  P.free pool h;
  Alcotest.(check bool) "double free raises" true
    (raises_invalid (fun () -> P.free pool h));
  Alcotest.(check bool) "free of none raises" true
    (raises_invalid (fun () -> P.free pool P.none))

let test_freelist_reuse_order () =
  (* free in one order, realloc: slots come back LIFO off the freelist and
     the arena does not grow while free slots remain *)
  let pool = P.create ~initial_capacity:4 () in
  let hs = Array.init 4 (fun i -> alloc pool ~seq:i ()) in
  let cap = P.capacity pool in
  Array.iter (P.free pool) hs;
  Alcotest.(check int) "all freed" 0 (P.live_count pool);
  let hs' = Array.init 4 (fun i -> alloc pool ~seq:(10 + i) ()) in
  Alcotest.(check int) "capacity unchanged" cap (P.capacity pool);
  Alcotest.(check int) "all live again" 4 (P.live_count pool);
  Array.iter
    (fun h -> Alcotest.(check bool) "fresh handle live" true (P.live pool h))
    hs';
  Array.iter
    (fun h -> Alcotest.(check bool) "old handle stale" false (P.live pool h))
    hs

let test_growth_preserves_live () =
  let pool = P.create ~initial_capacity:2 () in
  let hs = List.init 100 (fun i -> alloc pool ~seq:i ()) in
  Alcotest.(check bool) "arena grew" true (P.capacity pool >= 100);
  List.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "seq %d" i) i (P.seq pool h))
    hs

let test_to_packet_boundary () =
  let pool = P.create () in
  let h = P.alloc pool ~mark:1 ~flow:3 ~seq:9 ~size_bits:64.0 ~arrival:1.5 in
  let p = P.to_packet pool h in
  Alcotest.(check int) "uid is the handle" h p.Net.Packet.uid;
  Alcotest.(check int) "flow" 3 p.Net.Packet.flow;
  Alcotest.(check int) "seq" 9 p.Net.Packet.seq;
  Alcotest.(check int) "mark" 1 p.Net.Packet.mark;
  Alcotest.(check (float 0.0)) "size" 64.0 p.Net.Packet.size_bits;
  Alcotest.(check (float 0.0)) "arrival" 1.5 p.Net.Packet.arrival

(* Packet.make's uid counter is shared process state; worker Domains mint
   packets concurrently (e.g. the shard device), so uids must stay unique
   across Domains — the counter is an Atomic, not a plain ref. *)
let test_multi_domain_uid_unique () =
  let domains = 4 and per_domain = 5_000 in
  let mint () =
    Array.init per_domain (fun i ->
        (Net.Packet.make ~flow:0 ~seq:i ~size_bits:1.0 ~arrival:0.0 ()).Net.Packet.uid)
  in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn mint) in
  let mine = mint () in
  let all = mine :: List.map Domain.join spawned in
  let tbl = Hashtbl.create (domains * per_domain) in
  let dups = ref 0 in
  List.iter
    (Array.iter (fun uid ->
         if Hashtbl.mem tbl uid then incr dups else Hashtbl.add tbl uid ()))
    all;
  Alcotest.(check int) "no duplicate uids across domains" 0 !dups;
  Alcotest.(check int) "all uids minted" (domains * per_domain) (Hashtbl.length tbl)

let () =
  Alcotest.run "packet_pool"
  @@ Lockstep.with_rows
    [
      ( "pool",
        [
          Alcotest.test_case "field reads" `Quick test_field_reads;
          Alcotest.test_case "rejects empty" `Quick test_rejects_empty;
          Alcotest.test_case "engines reject non-finite" `Quick
            test_engines_reject_non_finite;
          Alcotest.test_case "generation staleness" `Quick test_generation_staleness;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "freelist reuse" `Quick test_freelist_reuse_order;
          Alcotest.test_case "growth preserves live" `Quick test_growth_preserves_live;
          Alcotest.test_case "to_packet boundary" `Quick test_to_packet_boundary;
        ] );
      ( "uid",
        [
          Alcotest.test_case "multi-domain uniqueness" `Quick
            test_multi_domain_uid_unique;
        ] );
    ]
