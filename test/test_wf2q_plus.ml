(* WF2Q+ unit tests: the virtual-time function of eq. 27 and the stamp
   discipline of eqs. 28-29, exercised directly through the policy
   interface (no simulator). *)

module P = Sched.Sched_intf

let feq = Alcotest.float 1e-9

let make_two () =
  let p = Hpfq.Disciplines.wf2q_plus.make ~rate:1.0 in
  let a = p.P.session_of_handle (p.P.open_session ~rate:0.5) in
  let b = p.P.session_of_handle (p.P.open_session ~rate:0.5) in
  (p, a, b)

let test_first_selection () =
  let p, a, b = make_two () in
  p.P.backlog ~now:0.0 ~session:a ~head_bits:1.0;
  p.P.backlog ~now:0.0 ~session:b ~head_bits:2.0;
  (* F_a = 2, F_b = 4: SEFF picks a *)
  Alcotest.(check (option int)) "smallest finish first" (Some a) (p.P.select ~now:0.0)

let test_eligibility_blocks_lead () =
  let p, a, b = make_two () in
  p.P.backlog ~now:0.0 ~session:a ~head_bits:1.0;
  p.P.backlog ~now:0.0 ~session:b ~head_bits:1.0;
  Alcotest.(check (option int)) "a first (tie -> smaller id)" (Some a) (p.P.select ~now:0.0);
  (* a's next packet: S=2 > V=1 -> not eligible; b (S=0) must win even
     though both have F within range *)
  p.P.requeue ~now:1.0 ~session:a ~head_bits:1.0;
  Alcotest.(check (option int)) "SEFF blocks the leader" (Some b) (p.P.select ~now:1.0)

let test_v_jumps_to_min_start () =
  let p, a, _b = make_two () in
  (* serve a long burst on a so its F races ahead *)
  p.P.backlog ~now:0.0 ~session:a ~head_bits:1.0;
  ignore (p.P.select ~now:0.0);
  p.P.requeue ~now:1.0 ~session:a ~head_bits:1.0;
  ignore (p.P.select ~now:1.0);
  p.P.set_idle ~now:2.0 ~session:a;
  (* system idle; a returns much later with stale V. Its stamp chains from
     F (=4) but the max-with-Smin term must lift V to S so it is served
     immediately (work conservation). *)
  p.P.backlog ~now:2.5 ~session:a ~head_bits:1.0;
  Alcotest.(check (option int)) "lifted V keeps SEFF work-conserving" (Some a)
    (p.P.select ~now:2.5)

let test_stamp_chaining_busy () =
  let p, a, b = make_two () in
  p.P.backlog ~now:0.0 ~session:a ~head_bits:1.0;
  p.P.backlog ~now:0.0 ~session:b ~head_bits:1.0;
  ignore (p.P.select ~now:0.0);
  (* busy-branch requeue: S = F_prev, independent of V *)
  p.P.requeue ~now:1.0 ~session:a ~head_bits:1.0;
  ignore (p.P.select ~now:1.0);
  (* now b was served; with V = 2 after two services, a is eligible again *)
  p.P.requeue ~now:2.0 ~session:b ~head_bits:1.0;
  Alcotest.(check (option int)) "alternation continues" (Some a) (p.P.select ~now:2.0)

(* The requeue swap's test is exact. b waits at S = 2 while a, served
   from V = 1, post-dates V to 2 - d, with d = 1e-10 inside the
   Float_cmp slack above it. a's requeue empties the eligible set, so the
   next select must take max(V, S_b) = 2 as its threshold and post-date V
   from there; promoting b at the requeue by the slack test would leave
   the threshold at 2 - d. *)
let test_requeue_swap_exact () =
  let p, a, b = make_two () in
  let d = 1e-10 in
  p.P.backlog ~now:0.0 ~session:b ~head_bits:1.0;
  Alcotest.(check (option int)) "b alone" (Some b) (p.P.select ~now:0.0);
  (* S_b = F_b = 2 > V = 1: b waits *)
  p.P.requeue ~now:1.0 ~session:b ~head_bits:1.0;
  p.P.backlog ~now:1.0 ~session:a ~head_bits:(1.0 -. d);
  Alcotest.(check (option int)) "a eligible, b waiting" (Some a) (p.P.select ~now:1.0);
  let now = 1.0 +. (1.0 -. d) in
  let v_now = p.P.virtual_time ~now in
  Alcotest.(check bool) "S_b within the slack above V(now)" true
    (2.0 > v_now && Sched.Float_cmp.le_with_slack 2.0 v_now);
  (* S_a = F_a = 3 - 2d > V: the eligible set empties *)
  p.P.requeue ~now ~session:a ~head_bits:1.0;
  Alcotest.(check (option int)) "b promoted" (Some b) (p.P.select ~now);
  (* V(now) = threshold + 1 bit of service - the 1 time unit to its end *)
  let v =
    Alcotest.testable
      (fun ppf -> Format.fprintf ppf "%.17g")
      (fun x y -> Float.abs (x -. y) <= 1e-12)
  in
  Alcotest.check v "V post-dated from max(V, S_b)" 2.0 (p.P.virtual_time ~now)

let test_real_time_advance () =
  (* standalone semantics: V gains the idle gap via the +tau term *)
  let p, a, _ = make_two () in
  p.P.backlog ~now:0.0 ~session:a ~head_bits:1.0;
  ignore (p.P.select ~now:0.0);
  p.P.set_idle ~now:1.0 ~session:a;
  let v_at_10 = p.P.virtual_time ~now:10.0 in
  Alcotest.check feq "V advanced with real time" 10.0 v_at_10

let test_select_empty () =
  let p, _, _ = make_two () in
  Alcotest.(check (option int)) "no backlog, no pick" None (p.P.select ~now:0.0)

let test_errors () =
  let p, a, _ = make_two () in
  p.P.backlog ~now:0.0 ~session:a ~head_bits:1.0;
  Alcotest.(check bool) "double backlog rejected" true
    (try
       p.P.backlog ~now:0.0 ~session:a ~head_bits:1.0;
       false
     with Invalid_argument _ -> true);
  p.P.set_idle ~now:0.0 ~session:a;
  Alcotest.(check bool) "double idle rejected" true
    (try
       p.P.set_idle ~now:0.0 ~session:a;
       false
     with Invalid_argument _ -> true)

(* Rate differentiation: over a long backlogged run, service converges to
   the rate ratio (3:1). *)
let test_rate_ratio () =
  let p = Hpfq.Disciplines.wf2q_plus.make ~rate:1.0 in
  let a = p.P.session_of_handle (p.P.open_session ~rate:0.75) in
  let b = p.P.session_of_handle (p.P.open_session ~rate:0.25) in
  p.P.backlog ~now:0.0 ~session:a ~head_bits:1.0;
  p.P.backlog ~now:0.0 ~session:b ~head_bits:1.0;
  let served = [| 0; 0 |] in
  let now = ref 0.0 in
  for _ = 1 to 400 do
    match p.P.select ~now:!now with
    | Some s ->
      served.(s) <- served.(s) + 1;
      now := !now +. 1.0;
      p.P.requeue ~now:!now ~session:s ~head_bits:1.0
    | None -> Alcotest.fail "starved"
  done;
  Alcotest.(check int) "3:1 split" 300 served.(a);
  Alcotest.(check int) "3:1 split (b)" 100 served.(b)

(* The B-WFI of Theorem 4 holds on the adversarial probe workload for a
   range of rate splits. *)
let test_bwfi_bound_various_rates () =
  List.iter
    (fun r0 ->
      let sim = Engine.Simulator.create () in
      let probe_delay = ref nan in
      let server = ref None in
      let sent = ref false in
      let deps = ref 0 in
      let n = 10 in
      let srv =
        Hpfq.Server.create ~sim ~rate:1.0
          ~policy:(Hpfq.Disciplines.wf2q_plus.make ~rate:1.0)
          ~on_depart:(fun pkt t ->
            if pkt.Net.Packet.flow = 0 then
              if !sent then begin
                if Float.is_nan !probe_delay then probe_delay := t -. pkt.Net.Packet.arrival
              end
              else begin
                incr deps;
                if !deps = n then begin
                  sent := true;
                  ignore (Hpfq.Server.inject (Option.get !server) ~session:0 ~size_bits:1.0)
                end
              end)
          ()
      in
      server := Some srv;
      ignore (Hpfq.Server.open_session srv ~rate:r0 ());
      let bg_rate = (1.0 -. r0) /. float_of_int n in
      let bgs = List.init n (fun _ ->
          Sched.Session_handle.slot (Hpfq.Server.open_session srv ~rate:bg_rate ())) in
      ignore
        (Engine.Simulator.schedule sim ~at:0.0 (fun () ->
             for _ = 1 to n do
               ignore (Hpfq.Server.inject srv ~session:0 ~size_bits:1.0)
             done;
             List.iter
               (fun s ->
                 for _ = 1 to 6 * n do
                   ignore (Hpfq.Server.inject srv ~session:s ~size_bits:1.0)
                 done)
               bgs));
      Engine.Simulator.run sim;
      let bwfi = Hpfq.Theory.bwfi_wf2q ~l_i_max:1.0 ~l_max:1.0 ~r_i:r0 ~r:1.0 in
      let bound = (1.0 /. r0) +. Hpfq.Theory.twfi_of_bwfi ~bwfi ~r_i:r0 in
      Alcotest.(check bool)
        (Printf.sprintf "T-WFI bound holds at r0=%.2f (delay %.3f <= %.3f)" r0
           !probe_delay bound)
        true
        ((not (Float.is_nan !probe_delay)) && !probe_delay <= bound +. 1e-9))
    [ 0.2; 0.5; 0.8 ]

(* A seeded Server run, folded into an order-sensitive FNV-1a hash of every
   departure's (session, seq, time): random weighted rates and packet sizes
   at 0.3x-1.5x load, seeds 1-24. Unequal rates are what make arrival and
   head stamping disagree (seeds 2, 16 and 21 transpose services), so the
   WF2Q+pp and WF2Q+ hashes differ. *)
let seeded_depart_hash factory =
  let h = ref 0xcbf29ce484222325L in
  let fold s =
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s
  in
  for seed = 1 to 24 do
    let rng = Random.State.make [| seed |] in
    let n = 2 + (seed mod 7) and packets = 20 + (seed * 7 mod 200) in
    let horizon = float_of_int packets *. (0.3 +. (float_of_int (seed mod 5) *. 0.3)) in
    let sim = Engine.Simulator.create () in
    let server =
      Hpfq.Server.create ~sim ~rate:1.0
        ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
        ~on_depart:(fun pkt t ->
          fold (Printf.sprintf "%d:%d:%h|" pkt.Net.Packet.flow pkt.Net.Packet.seq t))
        ()
    in
    let weights = Array.init n (fun _ -> 0.05 +. Random.State.float rng 1.0) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let sessions =
      Array.map (fun w ->
          Sched.Session_handle.slot (Hpfq.Server.open_session server ~rate:(w /. total) ())) weights
    in
    for _ = 1 to packets do
      let at = Random.State.float rng horizon in
      let session = sessions.(Random.State.int rng n) in
      let size_bits = 0.1 +. Random.State.float rng 1.9 in
      ignore
        (Engine.Simulator.schedule sim ~at (fun () ->
             ignore (Hpfq.Server.inject server ~session ~size_bits)))
    done;
    Engine.Simulator.run sim;
    fold "#"
  done;
  Printf.sprintf "%016Lx" !h

(* One pin per discipline in [Disciplines.all]. A refactor of the
   session heaps, the event set or a policy must not move any of them:
   they were taken on the implementations they now check. *)
let pinned =
  [
    ("WF2Q+", "8bd72a86c2b9a4f7");
    ("WF2Q+fx", "272d36a431ddf7ca");
    ("WF2Q+pp", "da4df75243c00c7c");
    ("WFQ", "d00735cefe9e4305");
    ("WF2Q", "7bf5337b15f876bf");
    ("SCFQ", "5e20dcadd31b27f7");
    ("SFQ", "5482e11f5ca59d47");
    ("VirtualClock", "10c04bd45d43b8b6");
    ("DRR", "1439c1bc1283d977");
    ("WRR", "98dac635e47ffe5c");
    ("FIFO", "5c9e6896cb24610f");
  ]

let test_pinned_schedules () =
  Alcotest.(check (list string))
    "one pin per discipline"
    (List.map (fun f -> f.Sched.Sched_intf.kind) Hpfq.Disciplines.all)
    (List.map fst pinned);
  List.iter
    (fun f ->
      let kind = f.Sched.Sched_intf.kind in
      Alcotest.(check string) kind (List.assoc kind pinned) (seeded_depart_hash f))
    Hpfq.Disciplines.all

let () =
  Alcotest.run "wf2q_plus"
    [
      ( "virtual-time",
        [
          Alcotest.test_case "first selection" `Quick test_first_selection;
          Alcotest.test_case "eligibility blocks leader" `Quick test_eligibility_blocks_lead;
          Alcotest.test_case "V jumps to min start" `Quick test_v_jumps_to_min_start;
          Alcotest.test_case "stamp chaining" `Quick test_stamp_chaining_busy;
          Alcotest.test_case "real-time advance" `Quick test_real_time_advance;
          Alcotest.test_case "requeue swap is exact" `Quick test_requeue_swap_exact;
        ] );
      ( "interface",
        [
          Alcotest.test_case "select on empty" `Quick test_select_empty;
          Alcotest.test_case "protocol errors" `Quick test_errors;
        ] );
      ( "guarantees",
        [
          Alcotest.test_case "rate ratio" `Quick test_rate_ratio;
          Alcotest.test_case "B-WFI bound across rates" `Quick test_bwfi_bound_various_rates;
        ] );
      ("pins", [ Alcotest.test_case "seeded schedules" `Quick test_pinned_schedules ]);
    ]
