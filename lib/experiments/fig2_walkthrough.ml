type completion = { session : int; seq : int; finish : float }

type result = {
  gps : completion list;
  packet : (string * completion list) list;
}

let session_rates = 0.5 :: List.init 10 (fun _ -> 0.05)

let run_fluid () =
  let finishes = ref [] in
  let g =
    Fluid.Gps.create ~rate:1.0 ~session_rates
      ~on_packet_finish:(fun pkt t ->
        finishes :=
          { session = pkt.Net.Packet.flow; seq = pkt.Net.Packet.seq; finish = t }
          :: !finishes)
      ()
  in
  for _ = 1 to 11 do
    ignore (Fluid.Gps.arrive g ~at:0.0 ~session:0 ~size_bits:1.0)
  done;
  for s = 1 to 10 do
    ignore (Fluid.Gps.arrive g ~at:0.0 ~session:s ~size_bits:1.0)
  done;
  Fluid.Gps.advance g ~to_:30.0;
  List.sort (fun a b -> compare (a.finish, a.session, a.seq) (b.finish, b.session, b.seq)) !finishes

let run_packet factory =
  let sim = Engine.Simulator.create () in
  let finishes = ref [] in
  let server =
    Hpfq.Server.create ~sim ~rate:1.0
      ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
      ~on_depart:(fun pkt t ->
        finishes :=
          { session = pkt.Net.Packet.flow; seq = pkt.Net.Packet.seq; finish = t }
          :: !finishes)
      ()
  in
  List.iter (fun r -> ignore (Hpfq.Server.open_session server ~rate:r ())) session_rates;
  ignore
    (Engine.Simulator.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 11 do
           ignore (Hpfq.Server.inject server ~session:0 ~size_bits:1.0)
         done;
         for s = 1 to 10 do
           ignore (Hpfq.Server.inject server ~session:s ~size_bits:1.0)
         done));
  Engine.Simulator.run sim;
  List.rev !finishes

let run_traced factory =
  let sim = Engine.Simulator.create () in
  let finishes = ref [] in
  let server =
    Hpfq.Server.create ~sim ~rate:1.0
      ~policy:(factory.Sched.Sched_intf.make ~rate:1.0)
      ~on_depart:(fun pkt t ->
        finishes :=
          { session = pkt.Net.Packet.flow; seq = pkt.Net.Packet.seq; finish = t }
          :: !finishes)
      ()
  in
  List.iter (fun r -> ignore (Hpfq.Server.open_session server ~rate:r ())) session_rates;
  let session_names =
    Array.init (List.length session_rates) (fun i -> Printf.sprintf "s%d" (i + 1))
  in
  let trace = Obs.Trace.attach_server ~name:"fig2-link" ~session_names server in
  Obs.Trace.attach_sim trace sim;
  ignore
    (Engine.Simulator.schedule sim ~at:0.0 (fun () ->
         for _ = 1 to 11 do
           ignore (Hpfq.Server.inject server ~session:0 ~size_bits:1.0)
         done;
         for s = 1 to 10 do
           ignore (Hpfq.Server.inject server ~session:s ~size_bits:1.0)
         done));
  Engine.Simulator.run sim;
  (List.rev !finishes, trace)

let run () =
  let disciplines =
    [
      Hpfq.Disciplines.wfq;
      Hpfq.Disciplines.wf2q;
      Hpfq.Disciplines.wf2q_plus;
      Hpfq.Disciplines.scfq;
    ]
  in
  {
    gps = run_fluid ();
    packet =
      List.map
        (fun f -> (f.Sched.Sched_intf.kind, run_packet f))
        disciplines;
  }

let session1_finishes completions =
  List.filter_map (fun c -> if c.session = 0 then Some (c.seq, c.finish) else None)
    completions
  |> List.sort compare |> List.map snd

(* Max over time of W_i^packet(0,t) − W_i^GPS(0,t) for session [i]: how many
   bits ahead of the fluid schedule the discipline let the session run. The
   paper's §3.1 point: ~N/2 packets for WFQ, < 1 packet for WF2Q/WF2Q+. *)
let max_service_lead ?(session = 0) completions =
  let g = Fluid.Gps.create ~rate:1.0 ~session_rates () in
  for _ = 1 to 11 do
    ignore (Fluid.Gps.arrive g ~at:0.0 ~session:0 ~size_bits:1.0)
  done;
  for s = 1 to 10 do
    ignore (Fluid.Gps.arrive g ~at:0.0 ~session:s ~size_bits:1.0)
  done;
  let finishes =
    List.filter (fun c -> c.session = session) completions
    |> List.sort (fun a b -> compare a.finish b.finish)
  in
  let lead = ref 0.0 in
  List.iteri
    (fun k c ->
      Fluid.Gps.advance g ~to_:c.finish;
      let packet_service = float_of_int (k + 1) in
      let fluid_service = Fluid.Gps.served_bits g ~session in
      lead := Float.max !lead (packet_service -. fluid_service))
    finishes;
  !lead

let render fmt { gps; packet } =
  let line name completions =
    Format.fprintf fmt "%-6s|" name;
    List.iter
      (fun c ->
        if c.session = 0 then Format.fprintf fmt " s1#%-2d" c.seq
        else Format.fprintf fmt " s%-4d" (c.session + 1))
      completions;
    Format.fprintf fmt "@."
  in
  Format.fprintf fmt "Service order (left to right in completion order):@.";
  line "GPS" gps;
  List.iter (fun (name, completions) -> line name completions) packet;
  Format.fprintf fmt "@.Session-1 finish times:@.";
  Format.fprintf fmt "  %-6s %s@." "GPS"
    (String.concat " " (List.map (Printf.sprintf "%.3g") (session1_finishes gps)));
  List.iter
    (fun (name, completions) ->
      Format.fprintf fmt "  %-6s %s@." name
        (String.concat " "
           (List.map (Printf.sprintf "%.3g") (session1_finishes completions))))
    packet;
  ignore gps;
  Format.fprintf fmt "@.Max session-1 service lead over GPS (packets):@.";
  List.iter
    (fun (name, completions) ->
      Format.fprintf fmt "  %-6s %.3f@." name (max_service_lead completions))
    packet
