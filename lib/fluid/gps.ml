type t = { hgps : Hgps.t; leaf_ids : int array }

let session_name i = Printf.sprintf "session-%d" i

let create ~rate ~session_rates ?on_packet_finish () =
  let leaves =
    List.mapi (fun i r -> Hpfq.Class_tree.leaf (session_name i) ~rate:r) session_rates
  in
  let spec = Hpfq.Class_tree.node "link" ~rate leaves in
  (* translate leaf node ids back to session indices in the callback *)
  let session_of_leaf = ref [||] in
  let on_packet_finish =
    Option.map
      (fun f pkt time ->
        let session = !session_of_leaf.(pkt.Net.Packet.flow) in
        f { pkt with Net.Packet.flow = session } time)
      on_packet_finish
  in
  let hgps = Hgps.create ~spec ?on_packet_finish () in
  let n = List.length session_rates in
  let leaf_ids = Array.init n (fun i -> Hgps.leaf_id hgps (session_name i)) in
  let max_leaf = Array.fold_left max 0 leaf_ids in
  let table = Array.make (max_leaf + 1) (-1) in
  Array.iteri (fun session leaf -> table.(leaf) <- session) leaf_ids;
  session_of_leaf := table;
  { hgps; leaf_ids }

let arrive t ~at ~session ~size_bits =
  Hgps.arrive t.hgps ~at ~leaf:t.leaf_ids.(session) ~size_bits

let advance t ~to_ = Hgps.advance t.hgps ~to_
let now t = Hgps.now t.hgps
let served_bits t ~session = Hgps.served_bits t.hgps ~node:(session_name session)
let backlog_bits t ~session = Hgps.backlog_bits t.hgps ~leaf:t.leaf_ids.(session)

let set_persistent t ~at ~session on =
  Hgps.set_persistent t.hgps ~at ~leaf:t.leaf_ids.(session) on

let busy t = Hgps.busy t.hgps
