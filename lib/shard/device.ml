module Rng = Engine.Rng
module Sim = Engine.Simulator

type workload = {
  flows_per_link : int;
  rounds : int;
  burst_max : int;
  packet_bits : float;
  overload : float;
  seed : int64;
}

let default_workload ~rounds =
  {
    flows_per_link = 4;
    rounds;
    burst_max = 8;
    packet_bits = 8.0 *. 1024.0;
    overload = 1.2;
    seed = 1L;
  }

type t = {
  links : int;
  workers : int;
  engine : Hpfq.Hier_engine.choice;
  spec : Hpfq.Class_tree.t;
  workload : workload;
  record_traces : bool;
  observe : bool;
}

(* One link of a mid-range device: 1 Gbps split 60/40 over two classes of
   two leaves each — enough hierarchy that the flat engine's W_n crediting
   and per-node virtual clocks are all exercised, small enough that a
   1024-link device stays cheap to build. *)
let default_spec ~queue_cap_pkts ~packet_bits =
  let r = 1e9 in
  let open Hpfq.Class_tree in
  with_queue_caps
    (float_of_int queue_cap_pkts *. packet_bits)
    (node "link" ~rate:r
       [
         node "hi" ~rate:(0.6 *. r)
           [ leaf "hi/a" ~rate:(0.3 *. r); leaf "hi/b" ~rate:(0.3 *. r) ];
         node "lo" ~rate:(0.4 *. r)
           [ leaf "lo/a" ~rate:(0.2 *. r); leaf "lo/b" ~rate:(0.2 *. r) ];
       ])

let create ?(workers = 1) ?(engine = `Auto) ?spec ?(queue_cap_pkts = 64)
    ?workload ?(record_traces = false) ?(observe = false) ~links () =
  if links < 1 then invalid_arg "Device.create: links must be >= 1";
  if workers < 1 || workers > Parallel.Pool.max_jobs then
    invalid_arg
      (Printf.sprintf "Device.create: workers must be in 1..%d" Parallel.Pool.max_jobs);
  let workload =
    match workload with Some w -> w | None -> default_workload ~rounds:50
  in
  if workload.flows_per_link < 1 then
    invalid_arg "Device.create: flows_per_link must be >= 1";
  if workload.rounds < 0 then invalid_arg "Device.create: rounds must be >= 0";
  if workload.burst_max < 0 then
    invalid_arg "Device.create: burst_max must be >= 0";
  (* [not (x > 0.0)] so that NaN is rejected too *)
  if not (workload.packet_bits > 0.0) then
    invalid_arg "Device.create: packet_bits must be positive";
  if not (workload.overload > 0.0 && Float.is_finite workload.overload) then
    invalid_arg "Device.create: overload must be positive and finite";
  let spec =
    match spec with
    | Some s -> s
    | None -> default_spec ~queue_cap_pkts ~packet_bits:workload.packet_bits
  in
  (match Hpfq.Class_tree.validate spec with
  | Ok () -> ()
  | Error es ->
    invalid_arg ("Device.create: invalid spec: " ^ String.concat "; " es));
  { links; workers; engine; spec; workload; record_traces; observe }

let links t = t.links
let workers t = t.workers
let spec t = t.spec
let workload t = t.workload

(* Mean offered load per link per round is [flows_per_link * burst_max/2]
   packets; the round period is sized so that offered/capacity equals the
   requested overload factor. *)
let round_dt t =
  let w = t.workload in
  let offered_bits =
    float_of_int w.flows_per_link
    *. (float_of_int w.burst_max /. 2.0)
    *. w.packet_bits
  in
  offered_bits /. (Hpfq.Class_tree.rate t.spec *. w.overload)

(* ---- trace fingerprinting ---- *)

let golden = 0x9E3779B97F4A7C15L

let fold_hash h k = Rng.mix64 (Int64.add (Int64.mul h golden) k)

let depart_key ~flow ~seq ~time =
  Rng.mix64
    (Int64.logxor
       (Int64.of_int ((flow * 0x3779) + seq))
       (Int64.bits_of_float time))

let hash_hex h = Printf.sprintf "%016Lx" h

(* ---- results ---- *)

type link_result = {
  link : int;
  departed_pkts : int;
  departed_bits : float;
  drops : int;
  events : int;
  final_time : float;
  trace_hash : int64;
  trace : (int * int * float) array option;
  sim : Engine.Simulator.t;
  stats : Engine.Simulator.stats;
  metrics : Stats.Report.t option;
}

type result = {
  per_link : link_result array;
  wall_s : float;
  total_pkts : int;
  total_bits : float;
  total_drops : int;
  total_events : int;
  device_hash : int64;
}

(* ---- the per-link simulation ---- *)

type link_state = {
  ls_link : int;
  ls_sim : Sim.t;
  ls_engine : Hpfq.Hier_engine.t;
  ls_leaf_ids : Hpfq.Hier.leaf array; (* leaf slot (Class_tree.leaves order) -> leaf *)
  ls_pkts : int ref;
  ls_bits : float ref;
  ls_hash : int64 ref;
  ls_trace : (int * int * float) list ref; (* newest first *)
  mutable ls_synced : float; (* sim advanced to this round stamp *)
  ls_trace_obs : Obs.Trace.t option;
}

let make_link_state t ~link =
  let sim = Sim.create () in
  let pkts = ref 0 and bits = ref 0.0 and hash = ref 0L in
  let trace = ref [] in
  let engine =
    (* the workload's per-round burst cap doubles as the link's drain
       cap: a backlogged link retires whole bursts per simulator event
       (the determinism contract keeps the device hash unchanged) *)
    Hpfq.Hier_engine.create ~sim ~spec:t.spec
      ~factory:Hpfq.Disciplines.wf2q_plus ~engine:t.engine
      ~burst_max:(max 1 t.workload.burst_max) ()
  in
  (* handle hook: every field is read from the pool while the handle is
     live, so no packet record is materialised per departure *)
  let pool = Hpfq.Hier_engine.pool engine in
  Hpfq.Hier_engine.add_depart_handle_hook engine (fun h ~leaf:_ time ->
      incr pkts;
      bits := !bits +. Net.Packet_pool.size_bits pool h;
      let flow = Net.Packet_pool.flow pool h
      and seq = Net.Packet_pool.seq pool h in
      hash := fold_hash !hash (depart_key ~flow ~seq ~time);
      if t.record_traces then trace := (flow, seq, time) :: !trace);
  let leaf_ids =
    Array.of_list
      (List.map
         (fun (name, _) -> Hpfq.Hier_engine.leaf_id engine name)
         (Hpfq.Class_tree.leaves t.spec))
  in
  let trace_obs =
    if t.observe then begin
      let tr = Obs.Trace.attach_engine ~capacity:1024 engine in
      Obs.Trace.attach_sim tr sim;
      Some tr
    end
    else None
  in
  {
    ls_link = link;
    ls_sim = sim;
    ls_engine = engine;
    ls_leaf_ids = leaf_ids;
    ls_pkts = pkts;
    ls_bits = bits;
    ls_hash = hash;
    ls_trace = trace;
    ls_synced = -1.0;
    ls_trace_obs = trace_obs;
  }

let sync_to s ~at =
  if s.ls_synced < at then begin
    Sim.run ~until:at s.ls_sim;
    s.ls_synced <- at
  end

let inject s ~leaf_slot ~size_bits ~count =
  Hpfq.Hier_engine.inject_many s.ls_engine ~leaf:s.ls_leaf_ids.(leaf_slot)
    ~size_bits ~count

let finish t s =
  Sim.run s.ls_sim; (* drain: every queued packet departs *)
  Option.iter Obs.Trace.detach s.ls_trace_obs;
  {
    link = s.ls_link;
    departed_pkts = !(s.ls_pkts);
    departed_bits = !(s.ls_bits);
    drops = Hpfq.Hier_engine.drops s.ls_engine;
    events = Sim.events_processed s.ls_sim;
    final_time = Sim.now s.ls_sim;
    trace_hash = !(s.ls_hash);
    trace =
      (if t.record_traces then Some (Array.of_list (List.rev !(s.ls_trace)))
       else None);
    sim = s.ls_sim;
    stats = Sim.stats s.ls_sim;
    metrics =
      Option.map
        (fun tr ->
          (* materialize in the link's task: the caller reads the report
             after the join, but the thunk must not re-touch live state *)
          let r = Obs.Trace.metrics_report tr in
          let rows = Stats.Report.rows r in
          Stats.Report.make
            ~name:(Printf.sprintf "link%d-metrics" s.ls_link)
            ~columns:(Stats.Report.columns r)
            ~rows:(fun () -> rows))
        s.ls_trace_obs;
  }

(* ---- replay ---- *)

(* One link's whole run: its flows (ascending ids) draw their bursts from
   their own [for_task] streams round by round, so the replay needs
   nothing from any other link. *)
let replay t ~link ~flows =
  let w = t.workload in
  let dt = round_dt t in
  let s = make_link_state t ~link in
  let leaves = List.length (Hpfq.Class_tree.leaves t.spec) in
  let root = Rng.create w.seed in
  let mine =
    Array.of_list
      (List.map (fun f -> (Rng.for_task root f, Flow_table.leaf_of_flow ~leaves f)) flows)
  in
  for r = 0 to w.rounds - 1 do
    let at = float_of_int r *. dt in
    Array.iter
      (fun (rng, leaf_slot) ->
        let count = Rng.int rng (w.burst_max + 1) in
        if count > 0 then begin
          sync_to s ~at;
          inject s ~leaf_slot ~size_bits:w.packet_bits ~count
        end)
      mine
  done;
  finish t s

let run t =
  let t0 = Unix.gettimeofday () in
  let flows = Array.make t.links [] in
  for f = (t.workload.flows_per_link * t.links) - 1 downto 0 do
    let link = Flow_table.link_of_flow ~links:t.links f in
    flows.(link) <- f :: flows.(link)
  done;
  let pool = Parallel.Pool.create ~jobs:t.workers () in
  let per_link =
    Parallel.Pool.map pool ~tasks:t.links ~f:(fun link -> replay t ~link ~flows:flows.(link))
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    per_link;
    wall_s;
    total_pkts = Array.fold_left (fun a r -> a + r.departed_pkts) 0 per_link;
    total_bits = Array.fold_left (fun a r -> a +. r.departed_bits) 0.0 per_link;
    total_drops = Array.fold_left (fun a r -> a + r.drops) 0 per_link;
    total_events = Array.fold_left (fun a r -> a + r.events) 0 per_link;
    device_hash = Array.fold_left (fun h r -> fold_hash h r.trace_hash) 0L per_link;
  }

let run_link_reference t ~link =
  if link < 0 || link >= t.links then
    invalid_arg (Printf.sprintf "Device.run_link_reference: link %d out of range" link);
  replay t ~link
    ~flows:
      (List.filter
         (fun f -> Flow_table.link_of_flow ~links:t.links f = link)
         (List.init (t.workload.flows_per_link * t.links) Fun.id))

(* ---- merged reports ---- *)

let report result =
  Stats.Report.make ~name:"shard-device"
    ~columns:[ "link"; "pkts"; "bits"; "drops"; "events"; "final_s"; "trace_hash" ]
    ~rows:(fun () ->
      let row r =
        [
          string_of_int r.link;
          string_of_int r.departed_pkts;
          Printf.sprintf "%.9g" r.departed_bits;
          string_of_int r.drops;
          string_of_int r.events;
          Printf.sprintf "%.9g" r.final_time;
          hash_hex r.trace_hash;
        ]
      in
      Array.to_list (Array.map row result.per_link)
      @ [
          [
            "device";
            string_of_int result.total_pkts;
            Printf.sprintf "%.9g" result.total_bits;
            string_of_int result.total_drops;
            string_of_int result.total_events;
            "";
            hash_hex result.device_hash;
          ];
        ])

let sim_report result =
  let trace =
    Obs.Trace.of_sims
      (Array.to_list (Array.map (fun r -> r.sim) result.per_link))
  in
  Obs.Trace.sim_report ~name:"shard-device-sims" trace

(* Merge the per-link node-metrics tables into one: same columns plus a
   leading "link" column, and a device-total row summing the additive
   counters (vtime watermarks don't add across links; left blank). *)
let metrics_report result =
  let reports =
    Array.to_list
      (Array.map (fun r -> Option.map (fun m -> (r.link, m)) r.metrics) result.per_link)
  in
  if List.exists Option.is_none reports then None
  else
    let reports = List.filter_map Fun.id reports in
    let columns =
      match reports with
      | (_, m) :: _ -> Stats.Report.columns m
      | [] -> []
    in
    Some
      (Stats.Report.make ~name:"shard-device-metrics"
         ~columns:("link" :: columns)
         ~rows:(fun () ->
           let rows =
             List.concat_map
               (fun (link, m) ->
                 List.map
                   (fun row -> string_of_int link :: row)
                   (Stats.Report.rows m))
               reports
           in
           (* additive columns: arrivals arrived_bits selects served_pkts
              served_bits drops; max_backlog and busy_periods also sum
              meaningfully as device-level totals except max_backlog,
              which takes the max *)
           let n_cols = List.length columns in
           let sums = Array.make n_cols 0.0 in
           let maxes = Array.make n_cols 0.0 in
           List.iter
             (fun (_, m) ->
               List.iter
                 (fun row ->
                   List.iteri
                     (fun i cell ->
                       match float_of_string_opt cell with
                       | Some v ->
                         sums.(i) <- sums.(i) +. v;
                         if v > maxes.(i) then maxes.(i) <- v
                       | None -> ())
                     row)
                 (Stats.Report.rows m))
             reports;
           let total =
             "device"
             :: List.mapi
                  (fun i col ->
                    match col with
                    | "node" | "vtime_min" | "vtime_max" -> ""
                    | "max_backlog" -> Printf.sprintf "%.9g" maxes.(i)
                    | _ -> Printf.sprintf "%.9g" sums.(i))
                  columns
           in
           rows @ [ total ]))
