type node = {
  name : string;
  mutable arrivals : int;
  mutable arrived_bits : float;
  mutable selects : int;
  mutable served_pkts : int;
  mutable served_bits : float;
  mutable drops : int;
  mutable backlog : int;
  mutable max_backlog : int;
  mutable busy_periods : int;
  mutable vtime_min : float;
  mutable vtime_max : float;
}

type t = { nodes : node array }

let create ~names =
  {
    nodes =
      Array.map
        (fun name ->
          {
            name;
            arrivals = 0;
            arrived_bits = 0.0;
            selects = 0;
            served_pkts = 0;
            served_bits = 0.0;
            drops = 0;
            backlog = 0;
            max_backlog = 0;
            busy_periods = 0;
            vtime_min = infinity;
            vtime_max = neg_infinity;
          })
        names;
  }

let node t id = t.nodes.(id)
let node_count t = Array.length t.nodes

let note_vtime n v =
  if v < n.vtime_min then n.vtime_min <- v;
  if v > n.vtime_max then n.vtime_max <- v

let on_arrive t ~node ~vtime ~bits =
  let n = t.nodes.(node) in
  n.arrivals <- n.arrivals + 1;
  n.arrived_bits <- n.arrived_bits +. bits;
  note_vtime n vtime

let on_backlog t ~node ~vtime =
  let n = t.nodes.(node) in
  if n.backlog = 0 then n.busy_periods <- n.busy_periods + 1;
  n.backlog <- n.backlog + 1;
  if n.backlog > n.max_backlog then n.max_backlog <- n.backlog;
  note_vtime n vtime

let on_idle t ~node ~vtime =
  let n = t.nodes.(node) in
  n.backlog <- n.backlog - 1;
  note_vtime n vtime

let on_select t ~node ~vtime =
  let n = t.nodes.(node) in
  n.selects <- n.selects + 1;
  note_vtime n vtime

let note_vtime t ~node ~vtime = note_vtime t.nodes.(node) vtime

let credit_served t ~node ~bits =
  let n = t.nodes.(node) in
  n.served_pkts <- n.served_pkts + 1;
  n.served_bits <- n.served_bits +. bits

let on_drop t ~node = t.nodes.(node).drops <- t.nodes.(node).drops + 1

let report ?(name = "node-metrics") ~order t =
  Stats.Report.make ~name
    ~columns:
      [
        "node";
        "arrivals";
        "arrived_bits";
        "selects";
        "served_pkts";
        "served_bits";
        "drops";
        "max_backlog";
        "busy_periods";
        "vtime_min";
        "vtime_max";
      ]
    ~rows:(fun () ->
      let cell = Printf.sprintf "%.9g" in
      List.map
        (fun id ->
          let n = t.nodes.(id) in
          [
            n.name;
            string_of_int n.arrivals;
            cell n.arrived_bits;
            string_of_int n.selects;
            string_of_int n.served_pkts;
            cell n.served_bits;
            string_of_int n.drops;
            string_of_int n.max_backlog;
            string_of_int n.busy_periods;
            (if n.vtime_min <= n.vtime_max then cell n.vtime_min else "");
            (if n.vtime_min <= n.vtime_max then cell n.vtime_max else "");
          ])
        order)
