type t =
  | Leaf of { name : string; rate : float; queue_capacity_bits : float option }
  | Node of { name : string; rate : float; children : t list }

let leaf ?queue_capacity_bits name ~rate = Leaf { name; rate; queue_capacity_bits }
let node name ~rate children = Node { name; rate; children }

let node_share name ~share ~parent_rate make_children =
  let rate = share *. parent_rate in
  Node { name; rate; children = make_children rate }

let name = function Leaf { name; _ } | Node { name; _ } -> name
let rate = function Leaf { rate; _ } | Node { rate; _ } -> rate
let children = function Leaf _ -> [] | Node { children; _ } -> children
let is_leaf = function Leaf _ -> true | Node _ -> false

let validate t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let seen = Hashtbl.create 16 in
  let rec walk t =
    let n = name t and r = rate t in
    if Hashtbl.mem seen n then err "duplicate node name %S" n;
    Hashtbl.replace seen n ();
    if not (Float.is_finite r) then err "node %S has non-finite rate %g" n r
    else if r <= 0.0 then err "node %S has non-positive rate %g" n r;
    match t with
    | Leaf { queue_capacity_bits = Some c; _ } when not (Float.is_finite c) ->
      err "leaf %S has non-finite queue capacity %g" n c
    | Leaf { queue_capacity_bits = Some c; _ } when c <= 0.0 ->
      err "leaf %S has non-positive queue capacity %g" n c
    | Leaf _ -> ()
    | Node { children = []; _ } -> err "interior node %S has no children" n
    | Node { children; rate = node_rate; _ } ->
      let child_sum = List.fold_left (fun acc c -> acc +. rate c) 0.0 children in
      if child_sum > node_rate *. (1.0 +. 1e-6) then
        err "children of %S reserve %g > node rate %g" n child_sum node_rate;
      List.iter walk children
  in
  walk t;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let with_queue_caps bits t =
  if bits <= 0.0 then
    invalid_arg
      (Printf.sprintf "Class_tree.with_queue_caps: capacity must be positive, got %g" bits);
  let rec cap = function
    | Leaf l -> Leaf { l with queue_capacity_bits = Some bits }
    | Node n -> Node { n with children = List.map cap n.children }
  in
  cap t

let leaves t =
  let rec walk acc = function
    | Leaf { name; rate; _ } -> (name, rate) :: acc
    | Node { children; _ } -> List.fold_left walk acc children
  in
  List.rev (walk [] t)

let rec depth = function
  | Leaf _ -> 1
  | Node { children; _ } ->
    1 + List.fold_left (fun acc c -> max acc (depth c)) 0 children

let rec count_nodes = function
  | Leaf _ -> 1
  | Node { children; _ } ->
    List.fold_left (fun acc c -> acc + count_nodes c) 1 children

let find_path t target =
  let rec walk path t =
    let path = t :: path in
    if String.equal (name t) target then Some (List.rev path)
    else
      List.fold_left
        (fun found c -> match found with Some _ -> found | None -> walk path c)
        None (children t)
  in
  walk [] t

let pp fmt t =
  let rec walk indent parent_rate t =
    let share = rate t /. parent_rate in
    Format.fprintf fmt "%s%s %s (%a, share %.3g)@."
      indent
      (if is_leaf t then "leaf" else "node")
      (name t) Engine.Units.pp_rate (rate t) share;
    List.iter (walk (indent ^ "  ") (rate t)) (children t)
  in
  walk "" (rate t) t
