type leaf = int

type t = {
  parent : int array;
  level : int array;
  rate : float array;
  children_off : int array;
  children_len : int array;
  child_ids : int array;
  slot : int array;
  path_off : int array;
  path_len : int array;
  path_nodes : int array;
  capacity_bits : float option array;
  names : string array;
  by_name : (string, int) Hashtbl.t;
  leaves : (string * leaf) list;
}

let create spec =
  (match Class_tree.validate spec with
  | Ok () -> ()
  | Error errors -> invalid_arg ("Hier_tree.create: invalid tree: " ^ String.concat "; " errors));
  (match spec with
  | Class_tree.Leaf { name; _ } ->
    invalid_arg
      (Printf.sprintf "Hier_tree.create: root %S is a leaf; the root must be an interior node"
         name)
  | Class_tree.Node _ -> ());
  let n = Class_tree.count_nodes spec in
  let parent = Array.make n (-1) and level = Array.make n 0 and rate = Array.make n 0.0 in
  let children_len = Array.make n 0 and slot = Array.make n (-1) in
  let capacity_bits = Array.make n None and names = Array.make n "" in
  let by_name = Hashtbl.create 16 in
  let leaves = ref [] and next = ref 0 in
  (* preorder: a node's id comes before its subtree's, so every subtree is
     a contiguous id range and the root is 0 *)
  let rec number ~lvl ~par ~slot_in_par s =
    let id = !next in
    incr next;
    names.(id) <- Class_tree.name s;
    rate.(id) <- Class_tree.rate s;
    level.(id) <- lvl;
    parent.(id) <- par;
    slot.(id) <- slot_in_par;
    Hashtbl.replace by_name names.(id) id;
    (match s with
    | Class_tree.Leaf { queue_capacity_bits; _ } ->
      capacity_bits.(id) <- queue_capacity_bits;
      leaves := (names.(id), id) :: !leaves
    | Class_tree.Node { children; _ } ->
      children_len.(id) <- List.length children;
      List.iteri (fun k c -> number ~lvl:(lvl + 1) ~par:id ~slot_in_par:k c) children)
  in
  number ~lvl:0 ~par:(-1) ~slot_in_par:(-1) spec;
  (* children grouped per node, in id order *)
  let children_off = Array.make n 0 in
  for id = 1 to n - 1 do
    children_off.(id) <- children_off.(id - 1) + children_len.(id - 1)
  done;
  let child_ids = Array.make (n - 1) 0 in
  for id = 1 to n - 1 do
    child_ids.(children_off.(parent.(id)) + slot.(id)) <- id
  done;
  (* leaf-to-root paths, flattened the same way *)
  let path_off = Array.make n 0 and path_len = Array.make n 0 in
  let total = ref 0 in
  for id = 0 to n - 1 do
    if children_len.(id) = 0 then begin
      path_off.(id) <- !total;
      path_len.(id) <- level.(id) + 1;
      total := !total + path_len.(id)
    end
  done;
  let path_nodes = Array.make !total 0 in
  for id = 0 to n - 1 do
    let m = ref id in
    for k = 0 to path_len.(id) - 1 do
      path_nodes.(path_off.(id) + k) <- !m;
      m := parent.(!m)
    done
  done;
  {
    parent;
    level;
    rate;
    children_off;
    children_len;
    child_ids;
    slot;
    path_off;
    path_len;
    path_nodes;
    capacity_bits;
    names;
    by_name;
    leaves = List.rev !leaves;
  }

let make_queues t ~pool =
  let queues = Net.Queues.create ~queues:(Array.length t.names) ~pool () in
  Array.iteri
    (fun id cap -> Option.iter (fun c -> Net.Queues.reset ~capacity_bits:c queues id) cap)
    t.capacity_bits;
  queues

let node_count t = Array.length t.names
let is_leaf t id = t.children_len.(id) = 0

let node_id t name =
  match Hashtbl.find_opt t.by_name name with Some id -> id | None -> raise Not_found

let unsafe_leaf_of_int (id : int) : leaf = id

(* -- The leaf hooks -------------------------------------------------------- *)

type leaf_cb = Net.Packet_pool.handle -> leaf:string -> float -> unit

type hooks = {
  mutable on_depart : leaf_cb;
  mutable on_drop : leaf_cb;
  mutable on_transmit_start : leaf_cb;
  sim : Engine.Simulator.t;
  pool : Net.Packet_pool.t;
  link : Link.t;
  leaf_names : string array;
}

let nop_leaf_cb _ ~leaf:_ _ = ()

(* a hook added to none replaces the no-op, so a single hook costs one call *)
let compose_leaf_cb f g =
  if f == nop_leaf_cb then g
  else fun pkt ~leaf now ->
    f pkt ~leaf now;
    g pkt ~leaf now

let add_depart_handle_hook h f = h.on_depart <- compose_leaf_cb h.on_depart f
let add_drop_handle_hook h f = h.on_drop <- compose_leaf_cb h.on_drop f

let add_transmit_start_handle_hook h f =
  h.on_transmit_start <- compose_leaf_cb h.on_transmit_start f;
  Link.set_on_start h.link (fun pkt ->
      h.on_transmit_start pkt
        ~leaf:h.leaf_names.(Net.Packet_pool.flow h.pool pkt)
        (Engine.Simulator.now h.sim))

(* Boxed wrappers: materialise a [Net.Packet.t] per event. *)
let boxed h f = fun p ~leaf now -> f (Net.Packet_pool.to_packet h.pool p) ~leaf now
let add_depart_hook h f = add_depart_handle_hook h (boxed h f)
let add_drop_hook h f = add_drop_handle_hook h (boxed h f)
let add_transmit_start_hook h f = add_transmit_start_handle_hook h (boxed h f)

let hooks t ~sim ~pool ~link ?on_depart ?on_drop () =
  let h =
    {
      on_depart = nop_leaf_cb;
      on_drop = nop_leaf_cb;
      on_transmit_start = nop_leaf_cb;
      sim;
      pool;
      link;
      leaf_names = t.names;
    }
  in
  Option.iter (add_depart_hook h) on_depart;
  Option.iter (add_drop_hook h) on_drop;
  h

(* -- The engines' shared surface ------------------------------------------ *)

module type SURFACE = sig
  type engine

  val index : engine -> t
  val hooks : engine -> hooks
  val leaf_id : engine -> string -> leaf
  val leaf_name : engine -> leaf -> string
  val leaf_ids : engine -> (string * leaf) list
  val root_name : engine -> string
  val node_name : engine -> int -> string
  val node_count : engine -> int
  val leaf_path : engine -> leaf:leaf -> int array

  val iter_interior :
    engine -> (id:int -> name:string -> level:int -> children:int array -> unit) -> unit

  val add_depart_hook : engine -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
  val add_drop_hook : engine -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
  val add_transmit_start_hook : engine -> (Net.Packet.t -> leaf:string -> float -> unit) -> unit
  val add_depart_handle_hook : engine -> leaf_cb -> unit
  val add_drop_handle_hook : engine -> leaf_cb -> unit
  val add_transmit_start_handle_hook : engine -> leaf_cb -> unit
end

module Surface (E : sig
  type engine

  val index : engine -> t
  val hooks : engine -> hooks
end) =
struct
  let index = E.index
  let hooks = E.hooks

  let leaf_id e name =
    let t = E.index e in
    let id = node_id t name in
    if not (is_leaf t id) then
      invalid_arg (Printf.sprintf "Hier_tree.leaf_id: %S is an interior node, not a leaf" name);
    id

  let leaf_name e (leaf : leaf) = (E.index e).names.(leaf)
  let leaf_ids e = (E.index e).leaves
  let root_name e = (E.index e).names.(0)
  let node_name e id = (E.index e).names.(id)
  let node_count e = node_count (E.index e)

  let leaf_path e ~leaf =
    let t = E.index e in
    if not (is_leaf t leaf) then invalid_arg "Hier_tree.leaf_path: not a leaf";
    Array.sub t.path_nodes t.path_off.(leaf) t.path_len.(leaf)

  let iter_interior e f =
    let t = E.index e in
    for id = 0 to Array.length t.names - 1 do
      if not (is_leaf t id) then
        f ~id ~name:t.names.(id) ~level:t.level.(id)
          ~children:(Array.sub t.child_ids t.children_off.(id) t.children_len.(id))
    done

  let add_depart_hook e = add_depart_hook (E.hooks e)
  let add_drop_hook e = add_drop_hook (E.hooks e)
  let add_transmit_start_hook e = add_transmit_start_hook (E.hooks e)
  let add_depart_handle_hook e = add_depart_handle_hook (E.hooks e)
  let add_drop_handle_hook e = add_drop_handle_hook (E.hooks e)
  let add_transmit_start_handle_hook e = add_transmit_start_handle_hook (E.hooks e)
end
