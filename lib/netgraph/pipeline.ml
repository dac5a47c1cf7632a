type flow = {
  name : string;
  route : (int * Hpfq.Hier.leaf) array; (* (hop index, leaf) per hop *)
  pending_origins : float Queue.t; (* injection times of packets in flight *)
  mutable delivered : int;
}

type hop = { name : string; spec : Hpfq.Class_tree.t; server : Hpfq.Hier.t }

type t = {
  sim : Engine.Simulator.t;
  mutable hops : hop array;
  propagation_delay : float;
  flows : (string, flow) Hashtbl.t;
  (* (hop index, leaf) -> flow, for routing departures *)
  routing : (int * Hpfq.Hier.leaf, flow) Hashtbl.t;
  on_deliver : flow:string -> Net.Packet.t -> injected:float -> delivered:float -> unit;
}

let create ~sim ~hops ~make_policy ?(propagation_delay = 0.001)
    ?(on_deliver = fun ~flow:_ _ ~injected:_ ~delivered:_ -> ()) ?burst_max () =
  if hops = [] then invalid_arg "Pipeline.create: no hops";
  let t =
    {
      sim;
      hops = [||];
      propagation_delay;
      flows = Hashtbl.create 8;
      routing = Hashtbl.create 16;
      on_deliver;
    }
  in
  (* Departures are observed through the handle hook: flow id and size are
     read from the hop's pool while the handle is still live (it is recycled
     as soon as the hook returns), and captured BY VALUE in the forwarding
     closure — the handle itself must never outlive the callback. A boxed
     packet is materialised only for the end-of-route [on_deliver]. *)
  let rec build index (name, spec) =
    let server = Hpfq.Hier.create ~sim ~spec ~make_policy ?burst_max () in
    let pool = Hpfq.Hier.pool server in
    Hpfq.Hier.add_depart_handle_hook server (fun h ~leaf:_ time ->
        hop_departure t index pool h time);
    { name; spec; server }
  and hop_departure t index pool h time =
    match
      Hashtbl.find_opt t.routing
        (index, Hpfq.Hier_tree.unsafe_leaf_of_int (Net.Packet_pool.flow pool h))
    with
    | None -> () (* leaf not owned by a pipeline flow: local traffic *)
    | Some flow ->
      if index + 1 < Array.length t.hops then begin
        (* forward to the next hop after the propagation delay *)
        let _, next_leaf = flow.route.(index + 1) in
        let size_bits = Net.Packet_pool.size_bits pool h in
        ignore
          (Engine.Simulator.schedule_after t.sim ~delay:t.propagation_delay (fun () ->
               ignore
                 (Hpfq.Hier.inject t.hops.(index + 1).server ~leaf:next_leaf ~size_bits)))
      end
      else begin
        let injected = Queue.pop flow.pending_origins in
        flow.delivered <- flow.delivered + 1;
        t.on_deliver ~flow:flow.name (Net.Packet_pool.to_packet pool h) ~injected
          ~delivered:time
      end
  in
  let hop_array = Array.of_list (List.mapi build hops) in
  t.hops <- hop_array;
  t

let add_flow t ~name ~route =
  if Hashtbl.mem t.flows name then invalid_arg "Pipeline.add_flow: duplicate flow";
  if List.length route <> Array.length t.hops then
    invalid_arg "Pipeline.add_flow: route length must equal the number of hops";
  let resolved =
    Array.of_list
      (List.mapi
         (fun index leaf_name ->
           let leaf = Hpfq.Hier.leaf_id t.hops.(index).server leaf_name in
           if Hashtbl.mem t.routing (index, leaf) then
             invalid_arg
               (Printf.sprintf "Pipeline.add_flow: leaf %s of hop %s already routed"
                  leaf_name t.hops.(index).name);
           (index, leaf))
         route)
  in
  let flow = { name; route = resolved; pending_origins = Queue.create (); delivered = 0 } in
  Array.iter (fun key -> Hashtbl.replace t.routing key flow) resolved;
  Hashtbl.replace t.flows name flow

let find_flow t name =
  match Hashtbl.find_opt t.flows name with
  | Some flow -> flow
  | None -> invalid_arg ("Pipeline: unknown flow " ^ name)

let inject t ~flow ~size_bits =
  let flow = find_flow t flow in
  Queue.push (Engine.Simulator.now t.sim) flow.pending_origins;
  let _, first_leaf = flow.route.(0) in
  ignore (Hpfq.Hier.inject t.hops.(0).server ~leaf:first_leaf ~size_bits)

let delivered t ~flow = (find_flow t flow).delivered
let in_flight t ~flow = Queue.length (find_flow t flow).pending_origins

let hop_server t name =
  match Array.find_opt (fun hop -> String.equal hop.name name) t.hops with
  | Some hop -> hop.server
  | None -> invalid_arg ("Pipeline: unknown hop " ^ name)

let end_to_end_bound t ~flow ~sigma ~l_max =
  let flow = find_flow t flow in
  let n_hops = Array.length t.hops in
  let rec total index acc =
    if index >= n_hops then Ok acc
    else
      let hop = t.hops.(index) in
      let _, leaf = flow.route.(index) in
      let leaf_name = Hpfq.Hier.leaf_name hop.server leaf in
      let hop_sigma = if index = 0 then sigma else 0.0 in
      match
        Hpfq.Theory.hier_delay_bound ~tree:hop.spec ~leaf:leaf_name ~sigma:hop_sigma
          ~l_max
      with
      | Error _ as e -> e
      | Ok bound -> total (index + 1) (acc +. bound)
  in
  Result.map
    (fun hop_sum -> hop_sum +. (float_of_int (n_hops - 1) *. t.propagation_delay))
    (total 0 0.0)
