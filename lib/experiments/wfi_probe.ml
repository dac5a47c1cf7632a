module Sim = Engine.Simulator
module Server = Hpfq.Server

type measurement = {
  discipline : string;
  n : int;
  measured_twfi : float;
  wf2q_plus_bound : float;
  probe_delay : float;
}

let r0 = 0.5
let packet_bits = 1.0

let measure ~factory ~n () =
  if n < 1 then invalid_arg "Wfi_probe.measure: n must be >= 1";
  let sim = Sim.create () in
  let probe_delay = ref nan in
  let probe_sent = ref false in
  let session0_departures = ref 0 in
  let server = ref None in
  let on_depart pkt t =
    let srv = Option.get !server in
    if pkt.Net.Packet.flow = 0 then
      if !probe_sent then begin
        if Float.is_nan !probe_delay then probe_delay := t -. pkt.Net.Packet.arrival
      end
      else begin
        incr session0_departures;
        (* queue drained: fire the probe into the empty queue right now *)
        if !session0_departures = n && Server.queue_bits srv ~session:0 = 0.0 then begin
          probe_sent := true;
          ignore (Server.inject srv ~session:0 ~size_bits:packet_bits)
        end
      end
  in
  let srv =
    Server.create ~sim ~rate:1.0 ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
      ~on_depart ()
  in
  server := Some srv;
  let s0 = Sched.Session_handle.slot (Server.open_session srv ~rate:r0 ()) in
  assert (s0 = 0);
  let bg_rate = (1.0 -. r0) /. float_of_int n in
  let bgs = List.init n (fun _ ->
      Sched.Session_handle.slot (Server.open_session srv ~rate:bg_rate ())) in
  ignore
    (Sim.schedule sim ~at:0.0 (fun () ->
         (* session 0's head-start burst *)
         for _ = 1 to n do
           ignore (Server.inject srv ~session:s0 ~size_bits:packet_bits)
         done;
         (* background sessions stay backlogged well past the probe *)
         List.iter
           (fun s ->
             for _ = 1 to 6 * n do
               ignore (Server.inject srv ~session:s ~size_bits:packet_bits)
             done)
           bgs));
  Sim.run sim;
  if Float.is_nan !probe_delay then invalid_arg "Wfi_probe: probe never departed";
  {
    discipline = factory.Sched.Sched_intf.kind;
    n;
    measured_twfi = !probe_delay -. (packet_bits /. r0);
    wf2q_plus_bound =
      Hpfq.Theory.twfi_of_bwfi
        ~bwfi:
          (Hpfq.Theory.bwfi_wf2q ~l_i_max:packet_bits ~l_max:packet_bits ~r_i:r0
             ~r:1.0)
        ~r_i:r0;
    probe_delay = !probe_delay;
  }

(* The sweep grid is the pool's canonical workload: every (discipline, N)
   cell builds its own private simulator, so the grid runs on any number
   of domains and the result list is bit-identical to the sequential one
   (cells are RNG-free; index order does the rest). *)
let sweep_grid ?pool ~factories ~ns () =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.create ~jobs:1 () in
  let grid =
    Array.of_list
      (List.concat_map (fun factory -> List.map (fun n -> (factory, n)) ns) factories)
  in
  Array.to_list
    (Parallel.Pool.map pool ~tasks:(Array.length grid) ~f:(fun i ->
         let factory, n = grid.(i) in
         measure ~factory ~n ()))

let sweep ?pool ~factory ~ns () = sweep_grid ?pool ~factories:[ factory ] ~ns ()
