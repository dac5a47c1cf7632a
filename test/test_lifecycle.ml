(* Session lifecycle and fixed-point virtual time.

   1. Differential: random open/close/arrive/select programs replayed on
      the float WF2Q+ engine and the fixed-point one must produce
      bit-identical traces — same slots from the freelist, same departure
      order, same final virtual time. Programs are built from dyadic
      quantities (power-of-two session rates, integer packet sizes, time
      steps in units of 2^-10), so every stamp eq. 27-29 computes is
      exactly representable in both domains and equality is exact, no
      tolerance.
   2. Handle hygiene: freelist reuse recycles slots, generation tags make
      stale handles raise rather than alias the next tenant.
   3. Close-under-backlog: the [`Drain]/[`Drop] contract on every
      registered discipline, on the packet Server, and on both hierarchy
      engines (their lockstep under random leaf churn is a row of
      test/lockstep.ml, run here).
   4. Soak smoke: the long-horizon drift harness — fixed-point V is
      exactly n times the per-packet step where float V has measurable
      rounding error.
   5. Flow_table.Sessions: open-on-first-arrival at the device ingress. *)

module Q = QCheck
module Intf = Sched.Sched_intf
module Handle = Sched.Session_handle
module Sim = Engine.Simulator
module HE = Hpfq.Hier_engine
module CT = Hpfq.Class_tree

let float_engine = Hpfq.Disciplines.wf2q_plus
let fixed_engine = Hpfq.Disciplines.wf2q_plus_fixed

(* ---- 1. fixed vs float differential over random lifecycle programs ---- *)

type op =
  | Open of int (* rate selector *)
  | Close of int * bool (* victim selector, [true] = `Drop *)
  | Arrive of int * int (* session selector, size in bits *)
  | Select
  | Step of int (* dt in units of 2^-10 server seconds *)

(* power-of-two rates: L/r_i is dyadic, so float stamps are exact *)
let rates = [| 0.5; 0.25; 0.125; 0.0625 |]

let op_gen =
  let open Q.Gen in
  frequency
    [
      (3, map (fun i -> Open i) (int_bound 1000));
      (2, map2 (fun i drop -> Close (i, drop)) (int_bound 1000) bool);
      (6, map2 (fun i z -> Arrive (i, z)) (int_bound 1000) (int_range 1 4));
      (6, return Select);
      (3, map (fun d -> Step d) (int_range 0 8));
    ]

let program_gen = Q.Gen.list_size (Q.Gen.int_range 10 150) op_gen

let print_op = function
  | Open i -> Printf.sprintf "Open %d" i
  | Close (i, d) -> Printf.sprintf "Close (%d, %b)" i d
  | Arrive (i, z) -> Printf.sprintf "Arrive (%d, %d)" i z
  | Select -> "Select"
  | Step d -> Printf.sprintf "Step %d" d

let print_program ops = String.concat "; " (List.map print_op ops)

type live = {
  h : Handle.t;
  slot : int;
  mutable queue : int list; (* packet sizes, head first *)
  mutable draining : bool;
}

(* Replay a program against one engine, producing the observable trace.
   Session targeting is by position in the harness's live list, so both
   replays aim the same ops at the same sessions as long as the engines
   have agreed so far — any divergence ends up in the trace. *)
let replay factory ops =
  let p = factory.Intf.make ~rate:1.0 in
  let trace = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> trace := s :: !trace) fmt in
  let live = ref [] in
  let now = ref 0.0 in
  let pick xs seed =
    match List.length xs with 0 -> None | n -> Some (List.nth xs (seed mod n))
  in
  let serve_one () =
    match p.Intf.select ~now:!now with
    | None -> emit "sel:none"
    | Some s -> (
      match List.find_opt (fun l -> l.slot = s) !live with
      | None -> emit "sel:unknown:%d" s
      | Some l -> (
        match l.queue with
        | [] -> emit "sel:empty:%d" s
        | z :: rest ->
          emit "dep:%d:%d" l.slot z;
          l.queue <- rest;
          (match rest with
          | z' :: _ -> p.Intf.requeue ~now:!now ~session:s ~head_bits:(float_of_int z')
          | [] ->
            (* set_idle frees a draining session's slot *)
            p.Intf.set_idle ~now:!now ~session:s;
            if l.draining then live := List.filter (fun l' -> l' != l) !live)))
  in
  List.iter
    (fun op ->
      match op with
      | Open seed ->
        if List.length !live < 48 then begin
          let h = p.Intf.open_session ~rate:rates.(seed mod Array.length rates) in
          let slot = p.Intf.session_of_handle h in
          emit "open:%d" slot;
          live := !live @ [ { h; slot; queue = []; draining = false } ]
        end
      | Close (seed, drop) -> (
        match pick (List.filter (fun l -> not l.draining) !live) seed with
        | None -> ()
        | Some l ->
          emit "close:%d:%c" l.slot (if drop then 'x' else 'd');
          p.Intf.close_session ~now:!now ~policy:(if drop then `Drop else `Drain) l.h;
          if drop || l.queue = [] then live := List.filter (fun l' -> l' != l) !live
          else l.draining <- true)
      | Arrive (seed, z) -> (
        match pick (List.filter (fun l -> not l.draining) !live) seed with
        | None -> ()
        | Some l ->
          p.Intf.arrive ~now:!now ~session:l.slot ~size_bits:(float_of_int z);
          if l.queue = [] then
            p.Intf.backlog ~now:!now ~session:l.slot ~head_bits:(float_of_int z);
          l.queue <- l.queue @ [ z ])
      | Select -> serve_one ()
      | Step d -> now := !now +. (float_of_int d /. 1024.0))
    ops;
  (* flush: every queued packet must still come out, in the same order *)
  let backlog = List.fold_left (fun acc l -> acc + List.length l.queue) 0 !live in
  for _ = 1 to backlog do
    serve_one ()
  done;
  emit "final:v=%h live=%d backlogged=%d" (p.Intf.virtual_time ~now:!now)
    (p.Intf.live_sessions ()) (p.Intf.backlogged_count ());
  List.rev !trace

let prop_fixed_float_differential =
  Q.Test.make ~count:400
    ~name:"fixed-point WF2Q+ replays float WF2Q+ bit-for-bit under churn"
    (Q.make program_gen ~print:print_program)
    (fun ops -> replay float_engine ops = replay fixed_engine ops)

(* the same trace equality for the stamped (observer-ready) variant, which
   shares the float reference semantics *)
let prop_stamped_differential =
  Q.Test.make ~count:150
    ~name:"stamped WF2Q+ replays float WF2Q+ bit-for-bit under churn"
    (Q.make program_gen ~print:print_program)
    (fun ops ->
      replay float_engine ops = replay Hpfq.Disciplines.wf2q_plus_per_packet ops)

(* ---- 2. handle hygiene: freelist reuse + generation staleness ---- *)

let raises_stale f =
  match f () with
  | _ -> false
  | exception Sched.Session_pool.Stale_handle _ -> true

let test_freelist_reuse_and_staleness () =
  List.iter
    (fun factory ->
      let kind = factory.Intf.kind in
      let p = factory.Intf.make ~rate:1.0 in
      let h1 = p.Intf.open_session ~rate:0.5 in
      let s1 = p.Intf.session_of_handle h1 in
      p.Intf.close_session ~now:0.0 ~policy:`Drop h1;
      Alcotest.(check bool)
        (kind ^ ": closed handle is stale") true
        (raises_stale (fun () -> p.Intf.session_of_handle h1));
      let h2 = p.Intf.open_session ~rate:0.25 in
      (* the GPS-exact disciplines run a recycle:false pool (their fluid
         clock state cannot be re-initialised per slot); everyone else
         must reuse the freed slot *)
      let recycles = not (List.mem kind [ "WFQ"; "WF2Q" ]) in
      Alcotest.(check int)
        (kind
        ^ if recycles then ": freelist recycles the slot"
          else ": non-recycling pool extends the arena")
        (if recycles then s1 else s1 + 1)
        (p.Intf.session_of_handle h2);
      Alcotest.(check bool) (kind ^ ": handles differ by generation") false
        (Handle.equal h1 h2);
      Alcotest.(check bool)
        (kind ^ ": stale handle still stale after reuse") true
        (raises_stale (fun () -> p.Intf.session_of_handle h1));
      Alcotest.(check bool)
        (kind ^ ": close through a stale handle is refused") true
        (raises_stale (fun () -> p.Intf.close_session ~now:0.0 ~policy:`Drop h1));
      Alcotest.(check int) (kind ^ ": one live session") 1 (p.Intf.live_sessions ()))
    Hpfq.Disciplines.all

(* ---- 3. close-under-backlog: `Drain serves out, `Drop retracts ---- *)

let test_close_backlogged_all_disciplines () =
  List.iter
    (fun factory ->
      let kind = factory.Intf.kind in
      (* `Drop: the closed session must never be selected again *)
      let p, hs =
        Hpfq.Schedulers.make ~rate:1.0 ~initial_sessions:[| 0.5; 0.25 |] factory
      in
      let s0 = p.Intf.session_of_handle hs.(0) in
      let s1 = p.Intf.session_of_handle hs.(1) in
      p.Intf.arrive ~now:0.0 ~session:s0 ~size_bits:1.0;
      p.Intf.backlog ~now:0.0 ~session:s0 ~head_bits:1.0;
      p.Intf.arrive ~now:0.0 ~session:s1 ~size_bits:1.0;
      p.Intf.backlog ~now:0.0 ~session:s1 ~head_bits:1.0;
      (* the GPS-exact disciplines cannot retract fluid service already
         granted: the contract lets them reject `Drop-of-backlogged with
         Invalid_argument instead (deterministically — heaps intact) *)
      (match p.Intf.close_session ~now:0.0 ~policy:`Drop hs.(0) with
      | () ->
        Alcotest.(check int) (kind ^ ": drop removes from backlog") 1
          (p.Intf.backlogged_count ());
        Alcotest.(check int) (kind ^ ": drop frees the slot") 1
          (p.Intf.live_sessions ());
        (match p.Intf.select ~now:0.0 with
        | Some s when s = s1 -> p.Intf.set_idle ~now:1.0 ~session:s1
        | Some s -> Alcotest.failf "%s: selected dropped session %d" kind s
        | None -> Alcotest.failf "%s: work-conservation lost after drop" kind);
        Alcotest.(check bool) (kind ^ ": nothing left to select") true
          (p.Intf.select ~now:1.0 = None)
      | exception Invalid_argument _ ->
        Alcotest.(check int)
          (kind ^ ": rejected drop left the backlog intact") 2
          (p.Intf.backlogged_count ());
        Alcotest.(check int)
          (kind ^ ": rejected drop left both sessions live") 2
          (p.Intf.live_sessions ()));
      (* `Drain: the session keeps its schedule place until it empties *)
      let p, hs =
        Hpfq.Schedulers.make ~rate:1.0 ~initial_sessions:[| 0.5 |] factory
      in
      let s0 = p.Intf.session_of_handle hs.(0) in
      p.Intf.arrive ~now:0.0 ~session:s0 ~size_bits:1.0;
      p.Intf.backlog ~now:0.0 ~session:s0 ~head_bits:1.0;
      p.Intf.close_session ~now:0.0 ~policy:`Drain hs.(0);
      Alcotest.(check int) (kind ^ ": draining session stays live") 1
        (p.Intf.live_sessions ());
      (match p.Intf.select ~now:0.0 with
      | Some s when s = s0 -> p.Intf.set_idle ~now:1.0 ~session:s0
      | Some s -> Alcotest.failf "%s: selected unknown session %d" kind s
      | None -> Alcotest.failf "%s: draining session not served" kind);
      Alcotest.(check int) (kind ^ ": slot freed once drained") 0
        (p.Intf.live_sessions ());
      Alcotest.(check bool) (kind ^ ": drained handle is stale") true
        (raises_stale (fun () -> p.Intf.session_of_handle hs.(0))))
    Hpfq.Disciplines.all

(* A closed slot is not a session: the driving-protocol calls raise before
   touching any state, so the freed slot can never be backlogged or
   selected. *)
let test_closed_session_rejected () =
  List.iter
    (fun factory ->
      let kind = factory.Intf.kind in
      let p, hs =
        Hpfq.Schedulers.make ~rate:1.0 ~initial_sessions:[| 0.5; 0.25 |] factory
      in
      let slot = p.Intf.session_of_handle hs.(1) in
      p.Intf.close_session ~now:0.0 ~policy:`Drop hs.(1);
      let rejects name f =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s on a closed session raises" kind name)
          true
          (match f () with () -> false | exception Invalid_argument _ -> true)
      in
      rejects "arrive" (fun () -> p.Intf.arrive ~now:0.0 ~session:slot ~size_bits:1.0);
      rejects "backlog" (fun () -> p.Intf.backlog ~now:0.0 ~session:slot ~head_bits:1.0);
      rejects "requeue" (fun () -> p.Intf.requeue ~now:0.0 ~session:slot ~head_bits:1.0);
      rejects "set_idle" (fun () -> p.Intf.set_idle ~now:0.0 ~session:slot);
      Alcotest.(check int) (kind ^ ": nothing backlogged") 0 (p.Intf.backlogged_count ());
      Alcotest.(check (option int)) (kind ^ ": nothing to select") None
        (p.Intf.select ~now:0.0))
    Hpfq.Disciplines.all

(* Protocol misuse on an open session — a second [backlog], [requeue] or
   [set_idle] of an idle session — must raise a named [Invalid_argument]
   before touching any state: a twin instance that never saw the bad calls
   keeps the same backlogged count and serves the same schedule. *)
let test_protocol_misuse_rejected () =
  List.iter
    (fun factory ->
      let kind = factory.Intf.kind in
      let rates = [| 0.5; 0.25; 0.25 |] in
      let make () = fst (Hpfq.Schedulers.make ~rate:1.0 ~initial_sessions:rates factory) in
      let a = make () and b = make () in
      (* queued packets per session: 0 has two, 1 has one, 2 stays idle *)
      let queued = [| [| 2; 1; 0 |]; [| 2; 1; 0 |] |] in
      List.iteri
        (fun i p ->
          Array.iteri
            (fun session n ->
              for _ = 1 to n do
                p.Intf.arrive ~now:0.0 ~session ~size_bits:1.0
              done;
              if n > 0 then p.Intf.backlog ~now:0.0 ~session ~head_bits:1.0)
            queued.(i))
        [ a; b ];
      (* serve one packet on each: the served session stays the same *)
      let step i p ~now =
        match p.Intf.select ~now with
        | None -> None
        | Some s ->
          let q = queued.(i) in
          q.(s) <- q.(s) - 1;
          if q.(s) > 0 then p.Intf.requeue ~now ~session:s ~head_bits:1.0
          else p.Intf.set_idle ~now ~session:s;
          Some s
      in
      Alcotest.(check (option int)) (kind ^ ": first pick agrees") (step 1 b ~now:0.0)
        (step 0 a ~now:0.0);
      let rejects name f =
        match f () with
        | () -> Alcotest.failf "%s: %s was accepted" kind name
        | exception Invalid_argument msg when String.contains msg ':' -> ()
        | exception Invalid_argument msg -> Alcotest.failf "%s: %s: unnamed %S" kind name msg
        | exception e -> Alcotest.failf "%s: %s raised %s" kind name (Printexc.to_string e)
      in
      (* session 0 had two packets, so it is still backlogged *)
      rejects "double backlog" (fun () -> a.Intf.backlog ~now:1.0 ~session:0 ~head_bits:1.0);
      rejects "requeue of idle" (fun () -> a.Intf.requeue ~now:1.0 ~session:2 ~head_bits:1.0);
      rejects "set_idle of idle" (fun () -> a.Intf.set_idle ~now:1.0 ~session:2);
      Alcotest.(check int) (kind ^ ": backlogged count unchanged")
        (b.Intf.backlogged_count ()) (a.Intf.backlogged_count ());
      let rec drain now =
        let sa = step 0 a ~now and sb = step 1 b ~now in
        Alcotest.(check (option int)) (Printf.sprintf "%s: pick at %g" kind now) sb sa;
        if sa <> None then drain (now +. 1.0)
      in
      drain 1.0)
    Hpfq.Disciplines.all

let test_server_close_under_backlog () =
  let sim = Sim.create () in
  let departed = ref [] in
  let dropped = ref [] in
  let srv, hs =
    Hpfq.Schedulers.server ~sim ~rate:1.0 ~initial_sessions:[| 0.5; 0.25 |]
      ~on_depart:(fun p t -> departed := (p.Net.Packet.flow, t) :: !departed)
      ~on_drop:(fun p t -> dropped := (p.Net.Packet.flow, t) :: !dropped)
      Hpfq.Disciplines.wf2q_plus ()
  in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         (* three packets each; close 0 `Drain and 1 `Drop mid-backlog *)
         for _ = 1 to 3 do
           ignore (Hpfq.Server.inject_handle srv ~handle:hs.(0) ~size_bits:1.0);
           ignore (Hpfq.Server.inject_handle srv ~handle:hs.(1) ~size_bits:1.0)
         done));
  ignore
    (Sim.schedule sim ~at:0.5 (fun () ->
         Hpfq.Server.close_session srv ~policy:`Drain hs.(0);
         Hpfq.Server.close_session srv ~policy:`Drop hs.(1)));
  Sim.run sim;
  let flows_out = List.map fst !departed in
  (* session 0 drains all three packets; session 1 loses everything not
     already committed to the link *)
  Alcotest.(check int) "session 0 drained in full" 3
    (List.length (List.filter (fun f -> f = 0) flows_out));
  Alcotest.(check int) "session 1's packets all accounted for" 3
    (List.length (List.filter (fun (f, _) -> f = 1) !dropped)
    + List.length (List.filter (fun f -> f = 1) flows_out));
  Alcotest.(check bool) "session 1 dropped at least one packet" true
    (List.exists (fun (f, _) -> f = 1) !dropped);
  Alcotest.(check int) "both slots freed" 0 (Hpfq.Server.live_sessions srv);
  Alcotest.(check bool) "server link went idle" false (Hpfq.Server.busy srv)

let test_server_wire_packet_finishes () =
  (* a `Drop close must not abort the packet already on the link *)
  let sim = Sim.create () in
  let departed = ref 0 in
  let srv, hs =
    Hpfq.Schedulers.server ~sim ~rate:1.0 ~initial_sessions:[| 0.5 |]
      ~on_depart:(fun _ _ -> incr departed)
      Hpfq.Disciplines.wf2q_plus ()
  in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         ignore (Hpfq.Server.inject_handle srv ~handle:hs.(0) ~size_bits:4.0)));
  ignore
    (Sim.schedule sim ~at:1.0 (fun () ->
         (* mid-transmission: the packet departs at t=4 regardless *)
         Hpfq.Server.close_session srv ~policy:`Drop hs.(0);
         Alcotest.(check bool) "link still busy through the close" true
           (Hpfq.Server.busy srv)));
  Sim.run sim;
  Alcotest.(check int) "committed packet still departed" 1 !departed;
  Alcotest.(check int) "slot freed at departure" 0 (Hpfq.Server.live_sessions srv)

(* ---- hierarchy engines: the committed-head retract ---- *)

let test_hier_drop_close_retracts () =
  (* deterministic pin of the committed-head retract: close a leaf whose
     head is committed up the tree but not on the wire; its packets drop
     and the sibling takes over immediately on both engines; reopened
     (no op rejected, so it read closed), the leaf is served again *)
  let spec = CT.node "root" ~rate:1.0 [ CT.leaf "a" ~rate:0.499; CT.leaf "b" ~rate:0.499 ] in
  let inject at leaf n = List.init n (fun _ -> Lockstep.At (at, Inject (leaf, 1.0))) in
  let s =
    Lockstep.fixed spec
      (inject 0.0 0 4 @ inject 0.0 1 4
      @ Lockstep.[ At (1.5, Close (0, `Drop)); At (20.0, Reopen 0) ]
      @ inject 20.1 0 2)
  in
  let o = Lockstep.(run generic s) in
  Alcotest.(check (option string)) "flat = generic exactly" None
    Lockstep.(diff o (run flat s));
  let served leaf ~before =
    List.length (List.filter (fun (l, _, t) -> l = leaf && t < before) o.departs)
  in
  let a_out = served "a" ~before:20.0 in
  Alcotest.(check int) "b drained in full" 4 (served "b" ~before:infinity);
  Alcotest.(check bool) "a stopped at the close" true (a_out < 4);
  Alcotest.(check int) "a's queue was dropped" (4 - a_out) o.drops;
  Alcotest.(check int) "no op rejected" 0 o.rejected;
  Alcotest.(check int) "reopened leaf served" 2 (served "a" ~before:infinity - a_out);
  Alcotest.(check bool) "a reads open again" true (List.assoc "a" o.states = `Open)

(* ---- 4. soak smoke: drift after 10^7 packets ---- *)

let test_soak_smoke () =
  let packets =
    match Sys.getenv_opt "HPFQ_SOAK" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 10_000_000)
    | None -> 10_000_000
  in
  let results = Experiments.Churn_bench.soak ~packets () in
  let find e = List.find (fun r -> r.Experiments.Churn_bench.s_engine = e) results in
  let fx = find "WF2Q+fx" and fl = find "WF2Q+" in
  Alcotest.(check bool) "fixed-point drift is provably zero" true
    fx.Experiments.Churn_bench.s_exact;
  Alcotest.(check (float 0.0)) "fixed-point drift is zero" 0.0 fx.s_drift;
  Alcotest.(check bool) "float engine accumulates measurable drift" true
    (Float.abs fl.s_drift > 0.0)

(* ---- 5. Flow_table.Sessions: open-on-first-arrival ---- *)

let test_flow_sessions () =
  let policy = float_engine.Intf.make ~rate:1.0 in
  let t = Shard.Flow_table.Sessions.create ~policy ~default_rate:0.01 () in
  Alcotest.(check bool) "unknown before first arrival" false
    (Shard.Flow_table.Sessions.known t ~flow:7);
  let h1 = Shard.Flow_table.Sessions.handle t ~flow:7 in
  Alcotest.(check bool) "known after first arrival" true
    (Shard.Flow_table.Sessions.known t ~flow:7);
  Alcotest.(check bool) "second arrival reuses the session" true
    (Handle.equal h1 (Shard.Flow_table.Sessions.handle t ~flow:7));
  ignore (Shard.Flow_table.Sessions.handle t ~flow:8);
  Alcotest.(check int) "one session per distinct flow" 2
    (Shard.Flow_table.Sessions.live t);
  Shard.Flow_table.Sessions.close t ~policy:`Drop ~now:0.0 ~flow:7;
  Alcotest.(check bool) "close forgets the mapping" false
    (Shard.Flow_table.Sessions.known t ~flow:7);
  Shard.Flow_table.Sessions.close t ~policy:`Drop ~now:0.0 ~flow:7;
  (* re-arrival opens a fresh generation *)
  let h2 = Shard.Flow_table.Sessions.handle t ~flow:7 in
  Alcotest.(check bool) "reopened session is a fresh generation" false
    (Handle.equal h1 h2);
  Alcotest.(check bool) "old handle is stale" true
    (raises_stale (fun () -> policy.Intf.session_of_handle h1));
  Alcotest.(check int) "policy live count matches the table" 2
    (policy.Intf.live_sessions ())

(* ---- Schedulers facade error paths: bad specs must raise, not
   half-construct ---- *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_facade_error_paths () =
  (* unknown discipline kind: the error names the kind and the known ones *)
  (match Hpfq.Schedulers.of_kind ~rate:1.0 "no-such-discipline" with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "unknown kind named in the error" true
      (let contains s sub =
         let n = String.length sub in
         let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       contains msg "no-such-discipline" && contains msg "WF2Q+")
  | _ -> Alcotest.fail "unknown kind must raise");
  (* every registered kind still resolves (case-insensitively) *)
  List.iter
    (fun kind ->
      let p, _ = Hpfq.Schedulers.of_kind ~rate:1.0 (String.lowercase_ascii kind) in
      Alcotest.(check int)
        (kind ^ ": resolved and constructed") 0 (p.Intf.live_sessions ()))
    (Hpfq.Schedulers.kinds ());
  (* non-positive link rate, on every constructor *)
  Alcotest.(check bool) "make rejects rate 0" true
    (raises_invalid (fun () ->
         Hpfq.Schedulers.make ~rate:0.0 Hpfq.Disciplines.wf2q_plus));
  Alcotest.(check bool) "make rejects negative rate" true
    (raises_invalid (fun () ->
         Hpfq.Schedulers.make ~rate:(-1.0) Hpfq.Disciplines.wf2q_plus));
  Alcotest.(check bool) "of_kind rejects rate 0" true
    (raises_invalid (fun () -> Hpfq.Schedulers.of_kind ~rate:0.0 "WF2Q+"));
  Alcotest.(check bool) "server rejects rate 0" true
    (raises_invalid (fun () ->
         Hpfq.Schedulers.server ~sim:(Sim.create ()) ~rate:0.0
           Hpfq.Disciplines.wf2q_plus ()));
  (* non-positive session rate inside initial_sessions *)
  Alcotest.(check bool) "zero session rate rejected" true
    (raises_invalid (fun () ->
         Hpfq.Schedulers.make ~rate:1.0 ~initial_sessions:[| 0.5; 0.0 |]
           Hpfq.Disciplines.wf2q_plus));
  (* guaranteed rates beyond the link's capacity: rejected up front, with
     nothing constructed (no sessions leak into a half-built policy) *)
  Alcotest.(check bool) "oversubscribed initial_sessions rejected" true
    (raises_invalid (fun () ->
         Hpfq.Schedulers.make ~rate:1.0 ~initial_sessions:[| 0.75; 0.5 |]
           Hpfq.Disciplines.wf2q_plus));
  Alcotest.(check bool) "oversubscribed server rejected" true
    (raises_invalid (fun () ->
         Hpfq.Schedulers.server ~sim:(Sim.create ()) ~rate:1.0
           ~initial_sessions:[| 0.75; 0.5 |] Hpfq.Disciplines.wf2q_plus ()));
  (* exactly-full is admissible, on every discipline *)
  List.iter
    (fun factory ->
      let p, hs =
        Hpfq.Schedulers.make ~rate:1.0 ~initial_sessions:[| 0.5; 0.5 |] factory
      in
      Alcotest.(check int)
        (factory.Intf.kind ^ ": full subscription admitted")
        2 (Array.length hs);
      Alcotest.(check int)
        (factory.Intf.kind ^ ": both sessions live")
        2 (p.Intf.live_sessions ()))
    Hpfq.Disciplines.all

let () =
  Alcotest.run "lifecycle"
  @@ Lockstep.with_rows
    [
      ( "facade",
        [
          Alcotest.test_case "constructor error paths" `Quick
            test_facade_error_paths;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fixed_float_differential; prop_stamped_differential ] );
      ( "handles",
        [
          Alcotest.test_case "freelist reuse + generation staleness" `Quick
            test_freelist_reuse_and_staleness;
        ] );
      ( "close",
        [
          Alcotest.test_case "close under backlog, every discipline" `Quick
            test_close_backlogged_all_disciplines;
          Alcotest.test_case "closed session rejected, every discipline" `Quick
            test_closed_session_rejected;
          Alcotest.test_case "protocol misuse rejected, every discipline" `Quick
            test_protocol_misuse_rejected;
          Alcotest.test_case "server drain/drop" `Quick test_server_close_under_backlog;
          Alcotest.test_case "server wire packet finishes" `Quick
            test_server_wire_packet_finishes;
          Alcotest.test_case "hier drop close retracts committed head" `Quick
            test_hier_drop_close_retracts;
        ] );
      ( "soak", [ Alcotest.test_case "fixed vs float drift" `Slow test_soak_smoke ] );
      ( "flow-table",
        [ Alcotest.test_case "open-on-first-arrival" `Quick test_flow_sessions ] );
    ]
