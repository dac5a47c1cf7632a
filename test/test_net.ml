(* Packet and FIFO primitives. *)

let mk ?(flow = 0) ?(seq = 1) ?(bits = 100.0) ?(at = 0.0) () =
  Net.Packet.make ~flow ~seq ~size_bits:bits ~arrival:at ()

let test_packet_uid_unique () =
  let a = mk () and b = mk () in
  Alcotest.(check bool) "uids differ" true (a.Net.Packet.uid <> b.Net.Packet.uid)

let test_packet_rejects_empty () =
  Alcotest.(check bool) "zero size rejected" true
    (try
       ignore (mk ~bits:0.0 ());
       false
     with Invalid_argument _ -> true)

(* Fifos hold pool handles; each test gets its own arena. *)
let alloc pool ?(seq = 1) ?(bits = 100.0) () =
  Net.Packet_pool.alloc pool ~flow:0 ~seq ~size_bits:bits ~arrival:0.0

let test_fifo_order_and_accounting () =
  let pool = Net.Packet_pool.create () in
  let q = Net.Fifo.create ~pool () in
  let p1 = alloc pool ~seq:1 ~bits:100.0 () in
  let p2 = alloc pool ~seq:2 ~bits:50.0 () in
  Alcotest.(check bool) "push1" true (Net.Fifo.push q p1);
  Alcotest.(check bool) "push2" true (Net.Fifo.push q p2);
  Alcotest.(check (float 1e-9)) "bits" 150.0 (Net.Fifo.bits q);
  Alcotest.(check int) "length" 2 (Net.Fifo.length q);
  let p = Net.Fifo.pop_exn q in
  Alcotest.(check int) "FIFO order" 1 (Net.Packet_pool.seq pool p);
  Alcotest.(check (float 1e-9)) "bits after pop" 50.0 (Net.Fifo.bits q)

let test_fifo_drop_tail () =
  let pool = Net.Packet_pool.create () in
  let q = Net.Fifo.create ~capacity_bits:120.0 ~pool () in
  Alcotest.(check bool) "fits" true (Net.Fifo.push q (alloc pool ~bits:100.0 ()));
  Alcotest.(check bool)
    "overflow dropped" false
    (Net.Fifo.push q (alloc pool ~bits:100.0 ()));
  Alcotest.(check int) "drop count" 1 (Net.Fifo.drops q);
  Alcotest.(check int) "queue intact" 1 (Net.Fifo.length q);
  Alcotest.(check bool)
    "small one still fits" true
    (Net.Fifo.push q (alloc pool ~bits:20.0 ()))

let test_fifo_clear () =
  let pool = Net.Packet_pool.create () in
  let q = Net.Fifo.create ~pool () in
  ignore (Net.Fifo.push q (alloc pool ()));
  Net.Fifo.clear q;
  Alcotest.(check bool) "empty" true (Net.Fifo.is_empty q);
  Alcotest.(check (float 1e-9)) "bits zero" 0.0 (Net.Fifo.bits q)

let test_fifo_empty_raises () =
  let pool = Net.Packet_pool.create () in
  let q = Net.Fifo.create ~pool () in
  Alcotest.(check bool) "pop_exn raises" true
    (try
       ignore (Net.Fifo.pop_exn q);
       false
     with Queue.Empty -> true);
  Alcotest.(check bool) "peek_exn raises" true
    (try
       ignore (Net.Fifo.peek_exn q);
       false
     with Queue.Empty -> true)

let test_fifo_ring_growth () =
  (* a long queue, interleaved with pops so head and tail both move while
     the pool under it grows several times *)
  let pool = Net.Packet_pool.create () in
  let q = Net.Fifo.create ~pool () in
  let n = 1000 in
  let popped = ref 0 in
  for i = 1 to n do
    ignore (Net.Fifo.push q (alloc pool ~seq:i ~bits:1.0 ()) : bool);
    if i mod 3 = 0 then begin
      incr popped;
      let p = Net.Fifo.pop_exn q in
      Alcotest.(check int) "wrap order" !popped (Net.Packet_pool.seq pool p);
      Net.Packet_pool.free pool p
    end
  done;
  Alcotest.(check int) "length" (n - !popped) (Net.Fifo.length q);
  for i = !popped + 1 to n do
    let p = Net.Fifo.pop_exn q in
    Alcotest.(check int) "drain order" i (Net.Packet_pool.seq pool p);
    Net.Packet_pool.free pool p
  done;
  Alcotest.(check bool) "empty" true (Net.Fifo.is_empty q);
  Alcotest.(check (float 1e-9)) "bits zero" 0.0 (Net.Fifo.bits q)

(* The chain runs through the packet's own pool slot, so a handle sits in
   at most one queue: a second push, into the same queue or another one
   over the same pool, is refused and changes neither queue. *)
let test_fifo_rejects_queued_handle () =
  let pool = Net.Packet_pool.create () in
  let q1 = Net.Fifo.create ~pool () and q2 = Net.Fifo.create ~capacity_bits:150.0 ~pool () in
  let h = alloc pool ~seq:1 () and g = alloc pool ~seq:2 () in
  Alcotest.(check bool) "first push" true (Net.Fifo.push q1 h);
  Alcotest.(check bool) "other packet" true (Net.Fifo.push q1 g);
  let refused q =
    Alcotest.check_raises "refused" (Invalid_argument "Queues.push: handle already queued")
      (fun () -> ignore (Net.Fifo.push q h))
  in
  refused q1;
  refused q2;
  (* a full queue refuses it too, rather than counting a drop *)
  ignore (Net.Fifo.push q2 (alloc pool ~seq:3 ()));
  refused q2;
  Alcotest.(check (list int)) "lengths" [ 2; 1 ] [ Net.Fifo.length q1; Net.Fifo.length q2 ];
  Alcotest.(check (list (float 0.0))) "bits" [ 200.0; 100.0 ] [ Net.Fifo.bits q1; Net.Fifo.bits q2 ];
  Alcotest.(check (list int)) "drops" [ 0; 0 ] [ Net.Fifo.drops q1; Net.Fifo.drops q2 ];
  Alcotest.check_raises "a queued handle cannot be freed"
    (Invalid_argument "Packet_pool.free: handle is queued") (fun () -> Net.Packet_pool.free pool h);
  Alcotest.(check int) "q1 order intact" h (Net.Fifo.pop_exn q1);
  Alcotest.(check int) "q1 tail intact" g (Net.Fifo.peek_exn q1);
  (* popped, it may join another queue *)
  Net.Fifo.clear q2;
  Alcotest.(check bool) "push after pop" true (Net.Fifo.push q2 h);
  Alcotest.(check int) "q2 head" h (Net.Fifo.pop_exn q2)

(* Random push / pop / peek / drop-tail / clear / re-push programs over
   three queues sharing one pool, against one [Queue.t] model per queue.
   Sizes are whole bits, so the model's sums are exact. *)
type fifo_op = Push of int * int | Repush of int * int | Pop of int | Peek of int | Clear of int

let fifo_op_gen =
  let open QCheck.Gen in
  let q = int_bound 2 in
  frequency
    [
      (6, map2 (fun q z -> Push (q, z)) q (int_range 1 4));
      (1, map2 (fun q k -> Repush (q, k)) q nat);
      (4, map (fun q -> Pop q) q);
      (2, map (fun q -> Peek q) q);
      (1, map (fun q -> Clear q) q);
    ]

let print_fifo_op = function
  | Push (q, z) -> Printf.sprintf "Push(%d,%d)" q z
  | Repush (q, k) -> Printf.sprintf "Repush(%d,%d)" q k
  | Pop q -> Printf.sprintf "Pop %d" q
  | Peek q -> Printf.sprintf "Peek %d" q
  | Clear q -> Printf.sprintf "Clear %d" q

let fifo_model_prop ops =
  let pool = Net.Packet_pool.create ~initial_capacity:2 () in
  let caps = [| infinity; 6.0; 3.0 |] in
  let qs = Array.map (fun c -> Net.Fifo.create ~capacity_bits:c ~pool ()) caps in
  let model = Array.map (fun _ -> Queue.create ()) caps in
  let bits = Array.make 3 0.0 and drops = Array.make 3 0 in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let agree () =
    Array.iteri
      (fun i q ->
        if Net.Fifo.length q <> Queue.length model.(i) then fail "queue %d: length" i;
        if Net.Fifo.bits q <> bits.(i) then fail "queue %d: bits %g, model %g" i (Net.Fifo.bits q) bits.(i);
        if Net.Fifo.drops q <> drops.(i) then fail "queue %d: drops" i;
        if Net.Fifo.is_empty q <> Queue.is_empty model.(i) then fail "queue %d: is_empty" i)
      qs;
    let queued = Array.fold_left (fun n m -> n + Queue.length m) 0 model in
    if Net.Packet_pool.live_count pool <> queued then fail "live handles other than the queued"
  in
  let head i = match Net.Fifo.peek_exn qs.(i) with h -> Some h | exception Queue.Empty -> None in
  List.iter
    (fun op ->
      (match op with
      | Push (i, z) ->
        let size = float_of_int z in
        let h = Net.Packet_pool.alloc pool ~flow:i ~seq:0 ~size_bits:size ~arrival:0.0 in
        let fits = bits.(i) +. size <= caps.(i) in
        if Net.Fifo.push qs.(i) h <> fits then fail "push into %d: wrong drop-tail verdict" i;
        if fits then begin
          Queue.push h model.(i);
          bits.(i) <- bits.(i) +. size
        end
        else begin
          drops.(i) <- drops.(i) + 1;
          Net.Packet_pool.free pool h
        end
      | Repush (i, k) -> (
        let all = List.concat_map (fun m -> List.of_seq (Queue.to_seq m)) (Array.to_list model) in
        match all with
        | [] -> ()
        | _ ->
          let h = List.nth all (k mod List.length all) in
          match Net.Fifo.push qs.(i) h with
          | _ -> fail "a queued handle was pushed into %d" i
          | exception Invalid_argument _ -> ())
      | Pop i -> (
        match Net.Fifo.pop_exn qs.(i) with
        | h ->
          if Queue.is_empty model.(i) then fail "pop from empty %d" i;
          let m = Queue.pop model.(i) in
          if h <> m then fail "pop from %d: wrong packet" i;
          bits.(i) <-
            (if Queue.is_empty model.(i) then 0.0 else bits.(i) -. Net.Packet_pool.size_bits pool h);
          Net.Packet_pool.free pool h
        | exception Queue.Empty -> if not (Queue.is_empty model.(i)) then fail "pop %d: Empty" i)
      | Peek i -> if head i <> Queue.peek_opt model.(i) then fail "peek %d" i
      | Clear i ->
        Net.Fifo.clear qs.(i);
        (* cleared handles are unqueued: they free without complaint *)
        Queue.iter (Net.Packet_pool.free pool) model.(i);
        Queue.clear model.(i);
        bits.(i) <- 0.0);
      agree ())
    ops;
  Array.iteri
    (fun i m ->
      Queue.iter
        (fun h -> if Net.Fifo.pop_exn qs.(i) <> h then fail "drain %d: wrong packet" i)
        m)
    model;
  true

let test_fifo_model =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xf1f0; 23 |])
    (QCheck.Test.make ~count:300 ~name:"fifos over one pool = Queue.t models"
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map print_fifo_op ops))
          QCheck.Gen.(list_size (int_range 1 120) fifo_op_gen))
       fifo_model_prop)

let () =
  Alcotest.run "net"
    [
      ( "packet",
        [
          Alcotest.test_case "uid unique" `Quick test_packet_uid_unique;
          Alcotest.test_case "rejects empty" `Quick test_packet_rejects_empty;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "order and accounting" `Quick test_fifo_order_and_accounting;
          Alcotest.test_case "drop tail" `Quick test_fifo_drop_tail;
          Alcotest.test_case "clear" `Quick test_fifo_clear;
          Alcotest.test_case "empty raises" `Quick test_fifo_empty_raises;
          Alcotest.test_case "ring growth and wrap" `Quick test_fifo_ring_growth;
          Alcotest.test_case "rejects a queued handle" `Quick test_fifo_rejects_queued_handle;
          test_fifo_model;
        ] );
    ]
