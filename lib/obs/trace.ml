module Sched_intf = Sched.Sched_intf

type t = {
  recorder : Recorder.t;
  metrics : Metrics.t;
  node_names : string array;
  session_nodes : int array array; (* interior id -> session idx -> child node id *)
  paths : int array array;         (* leaf id -> leaf-to-root path; [||] elsewhere *)
  mutable detach_fns : (unit -> unit) list;
  mutable sims : Engine.Simulator.t list; (* attach order, oldest last *)
  mutable sim_scheduled : int;
  mutable sim_fired : int;
  mutable sim_cancelled : int;
}

let recorder t = t.recorder
let metrics t = t.metrics

let names t =
  let node_label id =
    if id >= 0 && id < Array.length t.node_names then t.node_names.(id)
    else string_of_int id
  in
  {
    Sink.node_label;
    session_label =
      (fun ~node ~session ->
        if node >= 0 && node < Array.length t.session_nodes then begin
          let children = t.session_nodes.(node) in
          if session >= 0 && session < Array.length children then
            node_label children.(session)
          else string_of_int session
        end
        else string_of_int session);
  }

let observer t ~node =
  {
    Sched_intf.on_arrive =
      (fun ~now ~vtime ~session ~size_bits ->
        Recorder.record t.recorder ~kind:Event.Arrive ~node ~session ~time:now ~vtime
          ~bits:size_bits;
        Metrics.on_arrive t.metrics ~node ~vtime ~bits:size_bits);
    on_backlog =
      (fun ~now ~vtime ~session ~head_bits ->
        Recorder.record t.recorder ~kind:Event.Backlog ~node ~session ~time:now ~vtime
          ~bits:head_bits;
        Metrics.on_backlog t.metrics ~node ~vtime);
    on_requeue =
      (fun ~now ~vtime ~session ~head_bits ->
        Recorder.record t.recorder ~kind:Event.Requeue ~node ~session ~time:now ~vtime
          ~bits:head_bits;
        Metrics.note_vtime t.metrics ~node ~vtime);
    on_idle =
      (fun ~now ~vtime ~session ->
        Recorder.record t.recorder ~kind:Event.Idle ~node ~session ~time:now ~vtime
          ~bits:0.0;
        Metrics.on_idle t.metrics ~node ~vtime);
    on_select =
      (fun ~now ~vtime ~session ->
        Recorder.record t.recorder ~kind:Event.Select ~node ~session ~time:now ~vtime
          ~bits:0.0;
        Metrics.on_select t.metrics ~node ~vtime);
  }

(* A link-level event of packet [p], whose leaf is node [offset + flow].
   The tracing layer fires per packet, so it reads the pool directly
   instead of materialising boxed packets. A departure credits W_n up the
   leaf's leaf-to-root path. *)
let link_event t pool ~offset kind p time =
  let leaf_node = offset + Net.Packet_pool.flow pool p in
  let bits = Net.Packet_pool.size_bits pool p in
  Recorder.record t.recorder ~kind ~node:leaf_node ~session:(-1) ~time ~vtime:Float.nan ~bits;
  match kind with
  | Event.Depart ->
    Array.iter (fun node -> Metrics.credit_served t.metrics ~node ~bits) t.paths.(leaf_node)
  | Event.Drop -> Metrics.on_drop t.metrics ~node:leaf_node
  | _ -> ()

let make ~recorder ~node_names ~session_nodes ~paths =
  {
    recorder;
    metrics = Metrics.create ~names:node_names;
    node_names;
    session_nodes;
    paths;
    detach_fns = [];
    sims = [];
    sim_scheduled = 0;
    sim_fired = 0;
    sim_cancelled = 0;
  }

let attach_engine ?(capacity = 65536) ?(on_full = Recorder.Drop_oldest) e =
  let module HE = Hpfq.Hier_engine in
  let n = HE.node_count e in
  let paths = Array.make n [||] in
  List.iter
    (fun (_, (leaf : Hpfq.Hier_tree.leaf)) -> paths.((leaf :> int)) <- HE.leaf_path e ~leaf)
    (HE.leaf_ids e);
  let t =
    make ~recorder:(Recorder.create ~capacity ~on_full ())
      ~node_names:(Array.init n (HE.node_name e))
      ~session_nodes:(Array.make n [||]) ~paths
  in
  (* the observer install is the one engine-specific step *)
  let set_observer =
    match e with
    | HE.Generic h -> Hpfq.Hier.set_node_observer_id h
    | HE.Flat h -> Hpfq.Hier_flat.set_node_observer_id h
  in
  HE.iter_interior e (fun ~id ~name:_ ~level:_ ~children ->
      t.session_nodes.(id) <- children;
      set_observer ~node:id (Some (observer t ~node:id));
      t.detach_fns <- (fun () -> set_observer ~node:id None) :: t.detach_fns);
  let link = link_event t (HE.pool e) ~offset:0 in
  HE.add_transmit_start_handle_hook e (fun p ~leaf:_ time -> link Event.Transmit_start p time);
  HE.add_depart_handle_hook e (fun p ~leaf:_ time -> link Event.Depart p time);
  HE.add_drop_handle_hook e (fun p ~leaf:_ time -> link Event.Drop p time);
  t

let attach_server ?(capacity = 65536) ?(on_full = Recorder.Drop_oldest)
    ?(name = "server") ?session_names srv =
  let sessions = Hpfq.Server.session_count srv in
  let session_name i =
    match session_names with
    | Some a when i < Array.length a -> a.(i)
    | Some _ | None -> Printf.sprintf "s%d" i
  in
  (* Node id space mirrors a one-level hierarchy: 0 is the server node,
     1 + i stands for session i (the "leaves" link events belong to). *)
  let node_names =
    Array.init (1 + sessions) (fun id -> if id = 0 then name else session_name (id - 1))
  in
  let session_nodes = Array.make (1 + sessions) [||] in
  session_nodes.(0) <- Array.init sessions (fun i -> 1 + i);
  let paths = Array.init (1 + sessions) (fun id -> if id = 0 then [||] else [| id; 0 |]) in
  let t =
    make ~recorder:(Recorder.create ~capacity ~on_full ()) ~node_names ~session_nodes ~paths
  in
  let policy = Hpfq.Server.policy srv in
  policy.Sched_intf.set_observer (Some (observer t ~node:0));
  t.detach_fns <- [ (fun () -> policy.Sched_intf.set_observer None) ];
  let link = link_event t (Hpfq.Server.pool srv) ~offset:1 in
  Hpfq.Server.add_transmit_start_handle_hook srv (link Event.Transmit_start);
  Hpfq.Server.add_depart_handle_hook srv (link Event.Depart);
  Hpfq.Server.add_drop_handle_hook srv (link Event.Drop);
  t

(* A reporting-only trace: no engine, no observers, no probes — just a
   list of simulators for {!sim_report} to snapshot. Used by the shard
   device to merge per-link event-set occupancy into one table. *)
let of_sims sims =
  let t =
    make
      ~recorder:(Recorder.create ~capacity:1 ~on_full:Recorder.Drop_oldest ())
      ~node_names:[||] ~session_nodes:[||] ~paths:[||]
  in
  (* [t.sims] holds attach order newest-first; sim_report reverses it *)
  t.sims <- List.rev sims;
  t

let attach_sim t sim =
  t.sims <- sim :: t.sims;
  Engine.Simulator.set_probe sim
    (Some
       {
         Engine.Simulator.on_schedule =
           (fun ~at:_ ~now:_ -> t.sim_scheduled <- t.sim_scheduled + 1);
         on_fire = (fun ~at:_ -> t.sim_fired <- t.sim_fired + 1);
         on_cancel = (fun ~at:_ ~now:_ -> t.sim_cancelled <- t.sim_cancelled + 1);
       });
  t.detach_fns <- (fun () -> Engine.Simulator.set_probe sim None) :: t.detach_fns

let sim_counters t = (t.sim_scheduled, t.sim_fired, t.sim_cancelled)

let sim_report ?(name = "sim-events") t =
  Stats.Report.make ~name ~columns:[ "metric"; "value" ] ~rows:(fun () ->
      let counters =
        [
          [ "scheduled"; string_of_int t.sim_scheduled ];
          [ "fired"; string_of_int t.sim_fired ];
          [ "cancelled"; string_of_int t.sim_cancelled ];
        ]
      in
      let occupancy i sim =
        let st = Engine.Simulator.stats sim in
        (* one attached simulator is the normal case; suffix only beyond *)
        let key k = if i = 0 then k else Printf.sprintf "%s#%d" k i in
        [
          [ key "pending"; string_of_int st.Engine.Simulator.live ];
          [
            key "cancelled_in_set";
            string_of_int st.Engine.Simulator.cancelled_in_set;
          ];
          [ key "set_capacity"; string_of_int st.Engine.Simulator.set_capacity ];
          [ key "pool_capacity"; string_of_int st.Engine.Simulator.pool_capacity ];
          [ key "compactions"; string_of_int st.Engine.Simulator.compactions ];
          [ key "resizes"; string_of_int st.Engine.Simulator.resizes ];
        ]
      in
      let sims = List.rev t.sims in
      let totals =
        (* one sim needs no totals; a multi-sim trace (shard device) gets
           the device-wide occupancy sums appended *)
        match sims with
        | [] | [ _ ] -> []
        | _ ->
          let stats = List.map Engine.Simulator.stats sims in
          let sum f = List.fold_left (fun a st -> a + f st) 0 stats in
          [
            [ "sims"; string_of_int (List.length sims) ];
            [ "pending/total"; string_of_int (sum (fun st -> st.Engine.Simulator.live)) ];
            [
              "cancelled_in_set/total";
              string_of_int (sum (fun st -> st.Engine.Simulator.cancelled_in_set));
            ];
            [
              "set_capacity/total";
              string_of_int (sum (fun st -> st.Engine.Simulator.set_capacity));
            ];
            [
              "pool_capacity/total";
              string_of_int (sum (fun st -> st.Engine.Simulator.pool_capacity));
            ];
            [
              "compactions/total";
              string_of_int (sum (fun st -> st.Engine.Simulator.compactions));
            ];
            [ "resizes/total"; string_of_int (sum (fun st -> st.Engine.Simulator.resizes)) ];
          ]
      in
      counters @ List.concat (List.mapi occupancy sims) @ totals)

let detach t =
  List.iter (fun f -> f ()) t.detach_fns;
  t.detach_fns <- []

let events t = Recorder.to_list t.recorder
let drain t sink = Recorder.drain t.recorder sink

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_jsonl t ~path =
  with_out path (fun oc ->
      let sink = Sink.jsonl ~names:(names t) oc in
      Recorder.iter t.recorder (Sink.emit sink);
      Sink.flush sink)

let write_csv t ~path =
  with_out path (fun oc ->
      let sink = Sink.csv ~names:(names t) oc in
      Recorder.iter t.recorder (Sink.emit sink);
      Sink.flush sink)

let events_report ?(name = "trace-events") t =
  Stats.Report.make ~name ~columns:Sink.csv_header ~rows:(fun () ->
      let ns = names t in
      let acc = ref [] in
      Recorder.iter t.recorder (fun ev -> acc := Sink.csv_row ns ev :: !acc);
      List.rev !acc)

let metrics_report ?name t = Metrics.report ?name t.metrics
