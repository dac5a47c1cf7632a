type t = Generic of Hier.t | Flat of Hier_flat.t

type choice = [ `Generic | `Flat | `Auto ]

let choice_of_string = function
  | "generic" -> Ok `Generic
  | "flat" -> Ok `Flat
  | "auto" -> Ok `Auto
  | s ->
    Error
      (Printf.sprintf "unknown hier engine %S (expected generic|flat|auto)" s)

let choice_to_string = function
  | `Generic -> "generic"
  | `Flat -> "flat"
  | `Auto -> "auto"

let create ~sim ~spec ~factory ?(engine = `Auto) ?(root_clock = `Real_time)
    ?on_depart ?on_drop ?(burst_max = 1) () =
  let discipline = factory.Sched.Sched_intf.kind in
  let flat_ok = discipline = Wf2q_plus.factory.Sched.Sched_intf.kind in
  match engine with
  | (`Flat | `Auto) when flat_ok ->
    Flat (Hier_flat.create ~sim ~spec ~root_clock ?on_depart ?on_drop ~burst_max ())
  | `Flat ->
    invalid_arg
      (Printf.sprintf "Hier_engine.create: flat engine only implements WF2Q+, not %s"
         discipline)
  | `Generic | `Auto ->
    Generic
      (Hier.create ~sim ~spec ~make_policy:(Hier.uniform factory) ~root_clock
         ?on_depart ?on_drop ~burst_max ())

let kind = function Generic _ -> `Generic | Flat _ -> `Flat
let generic = function Generic h -> Some h | Flat _ -> None
let flat = function Flat h -> Some h | Generic _ -> None

include Hier_tree.Surface (struct
  type engine = t

  let index = function Generic h -> Hier.index h | Flat h -> Hier_flat.index h
  let hooks = function Generic h -> Hier.hooks h | Flat h -> Hier_flat.hooks h
end)

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

let held_packets = function
  | Generic h -> Hier.held_packets h
  | Flat h -> Hier_flat.held_packets h

let drops = function
  | Generic h -> Hier.drops h
  | Flat h -> Hier_flat.drops h

let pool = function
  | Generic h -> Hier.pool h
  | Flat h -> Hier_flat.pool h

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
