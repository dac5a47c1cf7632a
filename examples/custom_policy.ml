(* Extending the library: plug a custom one-level discipline into the
   H-PFQ machinery.

     dune exec examples/custom_policy.exe

   Any value of type Sched.Sched_intf.t can serve as a building block for
   the hierarchy (paper §4's point: H-PFQ is parameterised by its one-level
   servers). Here we implement STRICT PRIORITY — sessions added earlier
   always win — in ~40 lines, mount it at one node of a tree whose other
   node runs WF2Q+, and show the consequence the paper's theory predicts:
   priority gives the favoured session minimal delay but provides NO
   worst-case fairness, so the starved sibling's service can lag
   arbitrarily (unbounded WFI). *)

module Sim = Engine.Simulator
module Hier = Hpfq.Hier
module CT = Hpfq.Class_tree

(* A strict-priority discipline conforming to Sched.Sched_intf.t. *)
let strict_priority ~rate:_ : Sched.Sched_intf.t =
  let backlogged = Hashtbl.create 8 in
  let count = ref 0 in
  let pool = Sched.Session_pool.create ~name:"StrictPriority" ~recycle:false () in
  let observer : Sched.Sched_intf.observer option ref = ref None in
  let select ~now:_ =
    (* smallest session index wins: linear scan is fine for an example *)
    let best = ref None in
    for s = Sched.Session_pool.slot_count pool - 1 downto 0 do
      if Hashtbl.mem backlogged s then best := Some s
    done;
    !best
  in
  let open_session ~rate:_ = Sched.Session_pool.handle pool (Sched.Session_pool.alloc pool) in
  let close_session ~now:_ ~policy:_ h =
    Sched.Session_pool.free pool (Sched.Session_pool.resolve pool h)
  in
  {
    Sched.Sched_intf.name = "StrictPriority";
    open_session;
    close_session;
    session_of_handle = (fun h -> Sched.Session_pool.resolve pool h);
    live_sessions = (fun () -> Sched.Session_pool.live_count pool);
    arrive = (fun ~now:_ ~session:_ ~size_bits:_ -> ());
    backlog =
      (fun ~now:_ ~session ~head_bits:_ ->
        Hashtbl.replace backlogged session ();
        incr count);
    requeue = (fun ~now:_ ~session:_ ~head_bits:_ -> ());
    set_idle =
      (fun ~now:_ ~session ->
        Hashtbl.remove backlogged session;
        decr count);
    select;
    virtual_time = (fun ~now -> now);
    backlogged_count = (fun () -> !count);
    set_observer = (fun o -> observer := o);
  }

let spec =
  CT.node "link" ~rate:1.0
    [
      CT.node "prio-class" ~rate:0.5
        [ CT.leaf "urgent" ~rate:0.25; CT.leaf "bulk" ~rate:0.25 ];
      CT.leaf "other" ~rate:0.5;
    ]

let () =
  let sim = Sim.create () in
  let delays = Hashtbl.create 4 in
  let record leaf d =
    let cur = Option.value (Hashtbl.find_opt delays leaf) ~default:0.0 in
    Hashtbl.replace delays leaf (Float.max cur d)
  in
  (* WF2Q+ everywhere except the priority class *)
  let make_policy ~level:_ ~name ~rate =
    if String.equal name "prio-class" then strict_priority ~rate
    else Hpfq.Disciplines.wf2q_plus.Sched.Sched_intf.make ~rate
  in
  let h =
    Hier.create ~sim ~spec ~make_policy
      ~on_depart:(fun pkt ~leaf t -> record leaf (t -. pkt.Net.Packet.arrival))
      ()
  in
  let inject name =
    let leaf = Hier.leaf_id h name in
    fun () -> ignore (Hier.inject h ~leaf ~size_bits:1.0)
  in
  let urgent = inject "urgent" and bulk = inject "bulk" and other = inject "other" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 50 do
           bulk ();
           other ()
         done));
  (* urgent packets arrive sparsely while bulk is backlogged *)
  for k = 1 to 10 do
    ignore (Sim.schedule sim ~at:(float_of_int k *. 3.0) (fun () -> urgent ()))
  done;
  Sim.run sim;
  let get name = Option.value (Hashtbl.find_opt delays name) ~default:0.0 in
  Format.printf "max delays with StrictPriority at the prio-class node:@.";
  Format.printf "  urgent: %.2f  bulk: %.2f  other: %.2f@." (get "urgent") (get "bulk")
    (get "other");
  Format.printf
    "@.urgent beats WF2Q+'s bound (no queueing behind bulk), but bulk's@.\
     service lag is unbounded — exactly the WFI trade-off of §3.2. The@.\
     'other' class is untouched either way: hierarchy isolates it.@.";
  (* contrast: same tree, WF2Q+ everywhere *)
  Hashtbl.reset delays;
  let sim = Sim.create () in
  let h =
    Hier.create ~sim ~spec
      ~make_policy:(Hier.uniform Hpfq.Disciplines.wf2q_plus)
      ~on_depart:(fun pkt ~leaf t -> record leaf (t -. pkt.Net.Packet.arrival))
      ()
  in
  let inject name =
    let leaf = Hier.leaf_id h name in
    fun () -> ignore (Hier.inject h ~leaf ~size_bits:1.0)
  in
  let urgent = inject "urgent" and bulk = inject "bulk" and other = inject "other" in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 50 do
           bulk ();
           other ()
         done));
  for k = 1 to 10 do
    ignore (Sim.schedule sim ~at:(float_of_int k *. 3.0) (fun () -> urgent ()))
  done;
  Sim.run sim;
  Format.printf "@.same workload, H-WF2Q+ everywhere:@.";
  Format.printf "  urgent: %.2f  bulk: %.2f  other: %.2f@." (get "urgent") (get "bulk")
    (get "other")
