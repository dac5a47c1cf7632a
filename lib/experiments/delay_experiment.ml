module H = Paper_hierarchies
module Sim = Engine.Simulator
module HE = Hpfq.Hier_engine

type scenario = S1_constant_and_trains | S2_overloaded_poisson | S3_overload_and_trains

let scenario_name = function
  | S1_constant_and_trains -> "S1 (constant + trains)"
  | S2_overloaded_poisson -> "S2 (overloaded poisson)"
  | S3_overload_and_trains -> "S3 (overload + trains)"

type result = {
  discipline : string;
  scenario : scenario;
  delays : Stats.Delay_stats.t;
  lag : Stats.Service_curve.t;
  rt_packets : int;
  drops : int;
  link_utilization : float;
}

let rt1_delay_bound =
  match
    Hpfq.Theory.hier_delay_bound ~tree:H.fig3 ~leaf:"RT-1" ~sigma:H.rt1_sigma_bits
      ~l_max:H.fig3_packet_bits
  with
  | Ok bound -> bound
  | Error msg -> invalid_arg msg

let run ?rng ?engine ~factory ~scenario ?(horizon = 10.0) ?(seed = 1L) () =
  if not (horizon > 0.0) then
    invalid_arg (Printf.sprintf "Delay_experiment.run: horizon %g must be > 0" horizon);
  let sim = Sim.create () in
  let rng = match rng with Some r -> r | None -> Engine.Rng.create seed in
  let delays = Stats.Delay_stats.create () in
  let lag = Stats.Service_curve.create () in
  let rt_packets = ref 0 in
  let served_bits = ref 0.0 in
  let hier = ref None in
  let on_depart pkt ~leaf t =
    served_bits := !served_bits +. pkt.Net.Packet.size_bits;
    if String.equal leaf "RT-1" then begin
      incr rt_packets;
      Stats.Delay_stats.record delays ~time:t ~delay:(t -. pkt.Net.Packet.arrival);
      Stats.Service_curve.on_service lag ~time:t ~units:1.0
    end
  in
  let h = HE.create ~sim ~spec:H.fig3 ~factory ?engine ~on_depart () in
  hier := Some h;
  let emit_to name =
    let leaf = HE.leaf_id h name in
    fun ~size_bits -> ignore (HE.inject h ~leaf ~size_bits)
  in
  let pkt = H.fig3_packet_bits in
  (* RT-1: deterministic on/off from 200 ms, 25/75 duty, 4x peak; arrivals
     also recorded on the service-lag curve *)
  let rt_emit =
    let raw = emit_to "RT-1" in
    fun ~size_bits ->
      Stats.Service_curve.on_arrival lag ~time:(Sim.now sim) ~units:1.0;
      raw ~size_bits
  in
  ignore
    (Traffic.Source.on_off ~sim ~emit:rt_emit ~peak_rate:(4.0 *. H.rt1_rate)
       ~packet_bits:pkt ~on_duration:0.025 ~off_duration:0.075 ~start:0.2
       ~stop_at:horizon ());
  (* BE-1: continuously backlogged *)
  ignore
    (Traffic.Source.greedy ~sim ~emit:(emit_to "BE-1") ~packet_bits:pkt
       ~backlog_packets:64 ~top_up_every:0.25 ~stop_at:horizon ());
  (* PS-n: constant-rate at guaranteed rate (S1) or Poisson at 1.5x (S2,S3) *)
  for i = 1 to 10 do
    let emit = emit_to (Printf.sprintf "PS-%d" i) in
    match scenario with
    | S1_constant_and_trains ->
      (* the paper: "constant rate sessions with identical start times" —
         the simultaneous arrivals are part of the workload *)
      ignore
        (Traffic.Source.cbr ~sim ~emit ~rate:H.ps_rate ~packet_bits:pkt ~start:0.0
           ~stop_at:horizon ())
    | S2_overloaded_poisson | S3_overload_and_trains ->
      ignore
        (Traffic.Source.poisson ~sim ~emit ~rng:(Engine.Rng.split rng)
           ~mean_rate:(1.5 *. H.ps_rate) ~packet_bits:pkt ~stop_at:horizon ())
  done;
  (* CS-n: multiplexed packet trains, ~193 ms apart, staggered *)
  (match scenario with
  | S2_overloaded_poisson -> ()
  | S1_constant_and_trains | S3_overload_and_trains ->
    for i = 1 to 10 do
      let emit = emit_to (Printf.sprintf "CS-%d" i) in
      ignore
        (Traffic.Source.packet_train ~sim ~emit ~burst_packets:3 ~packet_bits:pkt
           ~intra_spacing:(pkt /. H.fig3_link_rate)
           ~inter_burst:0.193
           ~start:(0.0193 *. float_of_int i)
           ~stop_at:horizon ())
    done);
  Sim.run ~until:horizon sim;
  {
    discipline = factory.Sched.Sched_intf.kind;
    scenario;
    delays;
    lag;
    rt_packets = !rt_packets;
    drops = HE.drops h;
    link_utilization = !served_bits /. (H.fig3_link_rate *. horizon);
  }

(* Discipline × replication sweep, the Figs. 4-7 grid. Task (f, k) runs
   replication k of discipline f on a private simulator; its arrival
   randomness comes from [Rng.for_task base k] — keyed by the replication
   index, not the flat task index, so every discipline replays the same k
   arrival streams (paired comparison) and the streams don't shift when a
   discipline is added to the grid. Results come back in grid order,
   bit-identical for any worker count. *)
let run_sweep ?pool ?engine ~factories ~scenario ?horizon ?(seed = 1L) ?(replications = 1)
    () =
  if replications < 1 then
    invalid_arg "Delay_experiment.run_sweep: replications must be >= 1";
  let pool = match pool with Some p -> p | None -> Parallel.Pool.create ~jobs:1 () in
  let base = Engine.Rng.create seed in
  let grid =
    Array.of_list
      (List.concat_map
         (fun factory -> List.init replications (fun k -> (factory, k)))
         factories)
  in
  Array.to_list
    (Parallel.Pool.map pool ~tasks:(Array.length grid) ~f:(fun i ->
         let factory, k = grid.(i) in
         run ~rng:(Engine.Rng.for_task base k) ?engine ~factory ~scenario
           ?horizon ()))

let summary_row r =
  let ms = Engine.Units.seconds_to_ms in
  Printf.sprintf "%-12s %-26s pkts=%-5d max=%7.3fms mean=%7.3fms p99=%7.3fms lag_max=%5.1fpkt"
    r.discipline (scenario_name r.scenario) r.rt_packets
    (ms (Stats.Delay_stats.max_delay r.delays))
    (ms (Stats.Delay_stats.mean r.delays))
    (ms (Stats.Delay_stats.percentile r.delays 99.0))
    (Stats.Service_curve.max_lag r.lag)
