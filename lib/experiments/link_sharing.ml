module H = Paper_hierarchies
module Sim = Engine.Simulator
module HE = Hpfq.Hier_engine

type series = (float * float) list
type interval_row = { leaf : string; measured : float; ideal : float }

type interval = {
  label : string;
  t0 : float;
  t1 : float;
  rows : interval_row list;
}

type result = {
  discipline : string;
  measured : (string * series) list;
  ideal : (string * series) list;
  intervals : interval list;
  tcp_stats : (string * int * int) list;
}

(* Phase boundaries implied by the on/off schedule. *)
let breakpoints = [ 0.5; 5.0; 5.25; 6.0; 6.75; 7.5; 8.0; 8.25; 9.0; 10.0 ]

let run_packet ?engine ~factory ~horizon () =
  let sim = Sim.create () in
  let meters =
    List.map (fun leaf -> (leaf, Stats.Bandwidth_meter.create ())) H.fig8_tcp_leaves
  in
  let tcps = Hashtbl.create 8 in
  let on_depart pkt ~leaf t =
    (match List.assoc_opt leaf meters with
    | Some meter -> Stats.Bandwidth_meter.add meter ~time:t ~bits:pkt.Net.Packet.size_bits
    | None -> ());
    match Hashtbl.find_opt tcps leaf with
    | Some tcp -> Tcp.Tcp_reno.on_segment_delivered tcp ~mark:pkt.Net.Packet.mark
    | None -> ()
  in
  let h = HE.create ~sim ~spec:H.fig8 ~factory ?engine ~on_depart () in
  (* TCP connections on the measured leaves *)
  List.iter
    (fun leaf_name ->
      let leaf = HE.leaf_id h leaf_name in
      let send ~mark ~size_bits =
        let before = HE.drops h in
        ignore (HE.inject ~mark h ~leaf ~size_bits);
        if HE.drops h > before then `Dropped else `Queued
      in
      let tcp =
        Tcp.Tcp_reno.create ~sim ~send ~segment_bits:H.fig3_packet_bits
          ~ack_delay:0.002 ()
      in
      Hashtbl.replace tcps leaf_name tcp)
    H.fig8_tcp_leaves;
  (* on/off background per schedule: CBR inside each active window *)
  List.iter
    (fun (leaf_name, peak, windows) ->
      let leaf = HE.leaf_id h leaf_name in
      let emit ~size_bits = ignore (HE.inject h ~leaf ~size_bits) in
      List.iter
        (fun (w0, w1) ->
          ignore
            (Traffic.Source.cbr ~sim ~emit ~rate:peak ~packet_bits:H.fig3_packet_bits
               ~start:w0 ~stop_at:(Float.min w1 horizon) ()))
        windows)
    H.fig8_onoff_schedule;
  Sim.run ~until:horizon sim;
  let measured =
    List.map
      (fun (leaf, meter) -> (leaf, Stats.Bandwidth_meter.series meter ~until:horizon))
      meters
  in
  let stats =
    List.map
      (fun leaf ->
        let tcp = Hashtbl.find tcps leaf in
        (leaf, Tcp.Tcp_reno.retransmits tcp, Tcp.Tcp_reno.timeouts tcp))
      H.fig8_tcp_leaves
  in
  (measured, stats)

let run_fluid ~horizon =
  let fluid = Fluid.Hgps.create ~spec:H.fig8 () in
  (* TCP leaves are persistently backlogged in the ideal system; on/off
     sources are fed the same CBR arrival trains as the packet run *)
  List.iter
    (fun leaf ->
      Fluid.Hgps.set_persistent fluid ~at:0.0 ~leaf:(Fluid.Hgps.leaf_id fluid leaf) true)
    H.fig8_tcp_leaves;
  let arrivals =
    List.concat_map
      (fun (leaf, peak, windows) ->
        let gap = H.fig3_packet_bits /. peak in
        List.concat_map
          (fun (w0, w1) ->
            let n = max 0 (int_of_float ((Float.min w1 horizon -. w0) /. gap)) in
            List.init n (fun k -> (w0 +. (float_of_int k *. gap), leaf)))
          windows)
      H.fig8_onoff_schedule
    |> List.sort compare
  in
  (* sample cumulative service on a 50 ms grid, interleaving arrivals *)
  let dt = 0.05 in
  let steps = int_of_float (horizon /. dt) in
  let arrays =
    List.map (fun leaf -> (leaf, Array.make (steps + 1) 0.0)) H.fig8_tcp_leaves
  in
  let remaining = ref arrivals in
  for k = 0 to steps do
    let t = float_of_int k *. dt in
    let rec apply () =
      match !remaining with
      | (at, leaf) :: rest when at <= t ->
        ignore
          (Fluid.Hgps.arrive fluid ~at ~leaf:(Fluid.Hgps.leaf_id fluid leaf)
             ~size_bits:H.fig3_packet_bits);
        remaining := rest;
        apply ()
      | _ -> ()
    in
    apply ();
    Fluid.Hgps.advance fluid ~to_:t;
    List.iter
      (fun (leaf, arr) -> arr.(k) <- Fluid.Hgps.served_bits fluid ~node:leaf)
      arrays
  done;
  List.map
    (fun (leaf, arr) ->
      let series =
        List.init steps (fun k ->
            (float_of_int (k + 1) *. dt, (arr.(k + 1) -. arr.(k)) /. dt))
      in
      (leaf, series))
    arrays

let average_over series ~t0 ~t1 =
  let points = List.filter (fun (t, _) -> t > t0 && t <= t1) series in
  match points with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 points
    /. float_of_int (List.length points)

let run ?pool ?engine ?(factory = Hpfq.Disciplines.wf2q_plus) ?(horizon = H.fig8_horizon)
    () =
  if not (horizon > 0.0) then
    invalid_arg (Printf.sprintf "Link_sharing.run: horizon %g must be > 0" horizon);
  (* the packet system and the fluid ideal share nothing — they are the
     two natural tasks of this experiment, so a 2-worker pool halves its
     wall clock; both halves are deterministic, so fan-out is free *)
  let pool = match pool with Some p -> p | None -> Parallel.Pool.create ~jobs:1 () in
  let halves =
    Parallel.Pool.map pool ~tasks:2 ~f:(fun i ->
        if i = 0 then `Packet (run_packet ?engine ~factory ~horizon ())
        else `Fluid (run_fluid ~horizon))
  in
  let measured, tcp_stats =
    match halves.(0) with `Packet p -> p | `Fluid _ -> assert false
  in
  let ideal = match halves.(1) with `Fluid f -> f | `Packet _ -> assert false in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  let intervals =
    List.map
      (fun (t0, t1) ->
        let rows =
          List.map
            (fun leaf ->
              {
                leaf;
                measured = average_over (List.assoc leaf measured) ~t0 ~t1;
                ideal = average_over (List.assoc leaf ideal) ~t0 ~t1;
              })
            H.fig8_tcp_leaves
        in
        { label = Printf.sprintf "[%.2f,%.2f]s" t0 t1; t0; t1; rows })
      (pairs breakpoints)
  in
  { discipline = factory.Sched.Sched_intf.kind; measured; ideal; intervals; tcp_stats }

let summary fmt r =
  Format.fprintf fmt "Link sharing under H-%s vs ideal H-GPS (Mbps):@." r.discipline;
  Format.fprintf fmt "%-14s" "interval";
  List.iter (fun leaf -> Format.fprintf fmt " %14s" leaf) H.fig8_tcp_leaves;
  Format.fprintf fmt "@.";
  List.iter
    (fun interval ->
      Format.fprintf fmt "%-14s" interval.label;
      List.iter
        (fun (row : interval_row) ->
          Format.fprintf fmt " %6.2f/%-7.2f" (row.measured /. 1e6) (row.ideal /. 1e6))
        interval.rows;
      Format.fprintf fmt "@.")
    r.intervals;
  Format.fprintf fmt "(each cell: measured/ideal)@.";
  Format.fprintf fmt "TCP health:";
  List.iter
    (fun (leaf, retx, to_) -> Format.fprintf fmt " %s retx=%d timeouts=%d;" leaf retx to_)
    r.tcp_stats;
  Format.fprintf fmt "@.";
  (* the paper's "track very closely", as one number: every cell of
     every phase after the 0.5 s start-up *)
  let errs =
    List.concat_map
      (fun interval ->
        if interval.t0 < 0.5 then []
        else
          List.map
            (fun (row : interval_row) ->
              Float.abs (row.measured -. row.ideal) /. Float.max 1.0 row.ideal)
            interval.rows)
      r.intervals
  in
  Format.fprintf fmt "mean |measured-ideal|/ideal over all phases: %.1f%%@."
    (List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs) *. 100.0)
