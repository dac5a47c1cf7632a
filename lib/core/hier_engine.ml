type subtree = { shards : int option; epoch : int }

type t = Generic of Hier.t | Flat of Hier_flat.t

type choice = [ `Generic | `Flat | `Auto | `Subtree of subtree ]

let choice_of_string = function
  | "generic" -> Ok `Generic
  | "flat" -> Ok `Flat
  | "auto" -> Ok `Auto
  | "subtree" -> Ok (`Subtree { shards = None; epoch = 1 })
  | s ->
    Error
      (Printf.sprintf "unknown hier engine %S (expected generic|flat|auto|subtree)" s)

let choice_to_string = function
  | `Generic -> "generic"
  | `Flat -> "flat"
  | `Auto -> "auto"
  | `Subtree _ -> "subtree"

let create ~sim ~spec ~factory ?(engine = `Auto) ?(root_clock = `Real_time)
    ?on_depart ?on_drop ?(burst_max = 1) () =
  let discipline = factory.Sched.Sched_intf.kind in
  let flat_ok = discipline = Wf2q_plus.factory.Sched.Sched_intf.kind in
  let require_flat name =
    if not flat_ok then
      invalid_arg
        (Printf.sprintf "Hier_engine.create: %s engine only implements WF2Q+, not %s"
           name discipline)
  in
  let flat ?shards ?epoch () =
    Hier_flat.create ~sim ~spec ~root_clock ?on_depart ?on_drop ~burst_max ?shards
      ?epoch ()
  in
  match engine with
  | `Flat ->
    require_flat "flat";
    Flat (flat ())
  | `Auto when flat_ok -> Flat (flat ())
  | `Subtree { shards; epoch } ->
    require_flat "subtree";
    Flat (flat ?shards ~epoch ())
  | `Generic | `Auto ->
    Generic
      (Hier.create ~sim ~spec ~make_policy:(Hier.uniform factory) ~root_clock
         ?on_depart ?on_drop ~burst_max ())

let kind = function Generic _ -> `Generic | Flat _ -> `Flat
let generic = function Generic h -> Some h | Flat _ -> None
let flat = function Flat h -> Some h | Generic _ -> None

let leaf_id = function
  | Generic h -> Hier.leaf_id h
  | Flat h -> Hier_flat.leaf_id h

let leaf_name = function
  | Generic h -> Hier.leaf_name h
  | Flat h -> Hier_flat.leaf_name h

let leaf_ids = function
  | Generic h -> Hier.leaf_ids h
  | Flat h -> Hier_flat.leaf_ids h

let inject ?(mark = 0) t ~leaf ~size_bits =
  match t with
  | Generic h -> Hier.inject ~mark h ~leaf ~size_bits
  | Flat h -> Hier_flat.inject ~mark h ~leaf ~size_bits

let inject_many ?(mark = 0) t ~leaf ~size_bits ~count =
  match t with
  | Generic h -> Hier.inject_many ~mark h ~leaf ~size_bits ~count
  | Flat h -> Hier_flat.inject_many ~mark h ~leaf ~size_bits ~count

let set_burst_max t n =
  match t with
  | Generic h -> Hier.set_burst_max h n
  | Flat h -> Hier_flat.set_burst_max h n

let burst_max = function
  | Generic h -> Hier.burst_max h
  | Flat h -> Hier_flat.burst_max h

let queue_bits t ~leaf =
  match t with
  | Generic h -> Hier.queue_bits h ~leaf
  | Flat h -> Hier_flat.queue_bits h ~leaf

let departed_bits t ~node =
  match t with
  | Generic h -> Hier.departed_bits h ~node
  | Flat h -> Hier_flat.departed_bits h ~node

let ref_time t ~node =
  match t with
  | Generic h -> Hier.ref_time h ~node
  | Flat h -> Hier_flat.ref_time h ~node

let node_virtual_time t ~node =
  match t with
  | Generic h -> Hier.node_virtual_time h ~node
  | Flat h -> Hier_flat.node_virtual_time h ~node

let link_busy = function
  | Generic h -> Hier.link_busy h
  | Flat h -> Hier_flat.link_busy h

let drops = function
  | Generic h -> Hier.drops h
  | Flat h -> Hier_flat.drops h

let add_depart_hook t f =
  match t with
  | Generic h -> Hier.add_depart_hook h f
  | Flat h -> Hier_flat.add_depart_hook h f

let add_drop_hook t f =
  match t with
  | Generic h -> Hier.add_drop_hook h f
  | Flat h -> Hier_flat.add_drop_hook h f

let add_transmit_start_hook t f =
  match t with
  | Generic h -> Hier.add_transmit_start_hook h f
  | Flat h -> Hier_flat.add_transmit_start_hook h f

let add_depart_handle_hook t f =
  match t with
  | Generic h -> Hier.add_depart_handle_hook h f
  | Flat h -> Hier_flat.add_depart_handle_hook h f

let add_drop_handle_hook t f =
  match t with
  | Generic h -> Hier.add_drop_handle_hook h f
  | Flat h -> Hier_flat.add_drop_handle_hook h f

let add_transmit_start_handle_hook t f =
  match t with
  | Generic h -> Hier.add_transmit_start_handle_hook h f
  | Flat h -> Hier_flat.add_transmit_start_handle_hook h f

let pool = function
  | Generic h -> Hier.pool h
  | Flat h -> Hier_flat.pool h

let root_name = function
  | Generic h -> Hier.root_name h
  | Flat h -> Hier_flat.root_name h

let node_name = function
  | Generic h -> Hier.node_name h
  | Flat h -> Hier_flat.node_name h

let node_count = function
  | Generic h -> Hier.node_count h
  | Flat h -> Hier_flat.node_count h

let leaf_path t ~leaf =
  match t with
  | Generic h -> Hier.leaf_path h ~leaf
  | Flat h -> Hier_flat.leaf_path h ~leaf

let close_leaf t ~leaf ~policy =
  match t with
  | Generic h -> Hier.close_leaf h ~leaf ~policy
  | Flat h -> Hier_flat.close_leaf h ~leaf ~policy

let reopen_leaf ?rate t ~leaf =
  match t with
  | Generic h -> Hier.reopen_leaf ?rate h ~leaf
  | Flat h -> Hier_flat.reopen_leaf ?rate h ~leaf

let leaf_state t ~leaf =
  match t with
  | Generic h -> Hier.leaf_state h ~leaf
  | Flat h -> Hier_flat.leaf_state h ~leaf
