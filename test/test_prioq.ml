(* Priority-queue substrates: ordering, decrease/increase-key, invariants. *)

let check_sorted name xs =
  let rec ok = function
    | a :: (b :: _ as rest) -> a <= b && ok rest
    | _ -> true
  in
  Alcotest.(check bool) (name ^ " sorted") true (ok xs)

module IH = Prioq.Indexed_heap

let test_ih_basic () =
  let h = IH.create 4 in
  IH.add h ~key:0 ~prio:5.0;
  IH.add h ~key:7 ~prio:1.0; (* beyond initial capacity: must grow *)
  IH.add h ~key:3 ~prio:3.0;
  Alcotest.(check (option int)) "min key" (Some 7) (IH.min_key h);
  Alcotest.(check (option (pair int (float 1e-12)))) "min binding" (Some (7, 1.0))
    (IH.min_binding h);
  Alcotest.(check bool) "mem" true (IH.mem h 3);
  Alcotest.(check bool) "not mem" false (IH.mem h 2);
  Alcotest.(check bool) "invariant" true (IH.check_invariant h)

let test_ih_update_both_directions () =
  let h = IH.create 8 in
  List.iteri (fun i p -> IH.add h ~key:i ~prio:p) [ 5.0; 4.0; 3.0; 2.0; 1.0 ];
  Alcotest.(check (option int)) "initial min" (Some 4) (IH.min_key h);
  IH.update h ~key:4 ~prio:10.0; (* increase-key *)
  Alcotest.(check (option int)) "after increase" (Some 3) (IH.min_key h);
  IH.update h ~key:0 ~prio:0.5; (* decrease-key *)
  Alcotest.(check (option int)) "after decrease" (Some 0) (IH.min_key h);
  Alcotest.(check bool) "invariant" true (IH.check_invariant h)

let test_ih_remove () =
  let h = IH.create 8 in
  List.iteri (fun i p -> IH.add h ~key:i ~prio:p) [ 3.0; 1.0; 2.0 ];
  IH.remove h 1;
  Alcotest.(check bool) "removed" false (IH.mem h 1);
  Alcotest.(check (option int)) "new min" (Some 2) (IH.min_key h);
  IH.remove h 1; (* no-op *)
  Alcotest.(check int) "length" 2 (IH.length h);
  Alcotest.(check bool) "invariant" true (IH.check_invariant h)

let test_ih_pop_min_drain () =
  let h = IH.create 16 in
  let prios = [ 9.0; 2.0; 7.0; 2.0; 5.0; 0.1 ] in
  List.iteri (fun i p -> IH.add h ~key:i ~prio:p) prios;
  let rec drain acc =
    match IH.pop_min h with None -> List.rev acc | Some (_, p) -> drain (p :: acc)
  in
  check_sorted "indexed heap drain" (drain []);
  Alcotest.(check bool) "empty after drain" true (IH.is_empty h)

let test_ih_ties_deterministic () =
  let h = IH.create 8 in
  List.iter (fun k -> IH.add h ~key:k ~prio:1.0) [ 5; 2; 9; 0 ];
  Alcotest.(check (option int)) "smallest key wins ties" (Some 0) (IH.min_key h)

let test_ih_add_duplicate_rejected () =
  let h = IH.create 4 in
  IH.add h ~key:1 ~prio:1.0;
  Alcotest.check_raises "duplicate add"
    (Invalid_argument "Indexed_heap.add: key present") (fun () ->
      IH.add h ~key:1 ~prio:2.0)

module IH4 = Prioq.Indexed_heap4

(* The binary heap has no [replace_min]; as the reference it takes it as
   drop-min + add, which is [replace_min]'s contract. *)
module IH_ref = struct
  include Prioq.Indexed_heap

  let replace_min h ~key ~prio =
    ignore (pop_min h);
    add h ~key ~prio
end

(* [replace_min] is defined on a non-empty heap for a key that is absent
   or the minimum's own. *)
let replace_ok ~length ~mem ~min_key k = length > 0 && ((not mem) || min_key = Some k)

(* ---- model-based qcheck: both indexed heaps against a sorted-assoc
   reference.  The model is a plain association list; the expected minimum
   is the lexicographically smallest (prio, key) pair, matching the
   deterministic tie-break both heaps implement. ---- *)

module type INDEXED_HEAP = sig
  type t

  val create : int -> t
  val length : t -> int
  val mem : t -> int -> bool
  val add : t -> key:int -> prio:float -> unit
  val update : t -> key:int -> prio:float -> unit
  val remove : t -> int -> unit
  val replace_min : t -> key:int -> prio:float -> unit
  val min_key : t -> int option
  val min_binding : t -> (int * float) option
  val pop_min : t -> (int * float) option
  val check_invariant : t -> bool
end

type heap_op =
  | Add of int * float
  | Update of int * float
  | Replace of int * float
  | Remove of int
  | Pop

let heap_op_gen =
  let open QCheck.Gen in
  let key = int_bound 15 in
  (* half the priorities from four values, so the 4-ary heaps' tie
     replay runs *)
  let prio =
    frequency [ (1, float_bound_inclusive 100.0); (1, map float_of_int (int_bound 3)) ]
  in
  frequency
    [
      (4, map2 (fun k p -> Add (k, p)) key prio);
      (3, map2 (fun k p -> Update (k, p)) key prio);
      (3, map2 (fun k p -> Replace (k, p)) key prio);
      (2, map (fun k -> Remove k) key);
      (2, return Pop);
    ]

let heap_op_print = function
  | Add (k, p) -> Printf.sprintf "Add(%d,%g)" k p
  | Update (k, p) -> Printf.sprintf "Update(%d,%g)" k p
  | Replace (k, p) -> Printf.sprintf "Replace(%d,%g)" k p
  | Remove k -> Printf.sprintf "Remove %d" k
  | Pop -> "Pop"

let heap_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map heap_op_print ops))
    QCheck.Gen.(list_size (int_range 1 200) heap_op_gen)

let model_min model =
  List.fold_left
    (fun acc (k, p) ->
      match acc with
      | None -> Some (k, p)
      | Some (bk, bp) -> if p < bp || (p = bp && k < bk) then Some (k, p) else acc)
    None model

let model_apply op model =
  match op with
  | Add (k, p) -> (k, p) :: List.remove_assoc k model
  | Update (k, p) ->
    if List.mem_assoc k model then (k, p) :: List.remove_assoc k model else model
  | Replace (k, p) -> (
    match model_min model with
    | Some (m, _) when m = k || not (List.mem_assoc k model) ->
      (k, p) :: List.remove_assoc k (List.remove_assoc m model)
    | _ -> model)
  | Remove k -> List.remove_assoc k model
  | Pop -> (
    match model_min model with
    | None -> model
    | Some (k, _) -> List.remove_assoc k model)

let prop_heap_matches_model (type h) (module H : INDEXED_HEAP with type t = h) name =
  QCheck.Test.make ~count:300 ~name:(name ^ " matches sorted-assoc model")
    heap_ops_arb
    (fun ops ->
      let h = H.create 4 in
      let model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Add (k, p) ->
            if H.mem h k then H.update h ~key:k ~prio:p else H.add h ~key:k ~prio:p
          | Update (k, p) -> if H.mem h k then H.update h ~key:k ~prio:p
          | Replace (k, p) ->
            if replace_ok ~length:(H.length h) ~mem:(H.mem h k) ~min_key:(H.min_key h) k then
              H.replace_min h ~key:k ~prio:p
          | Remove k -> H.remove h k
          | Pop -> ignore (H.pop_min h));
          model := model_apply op !model;
          H.check_invariant h
          && H.length h = List.length !model
          && H.min_binding h = model_min !model
          && List.for_all
               (fun k -> H.mem h k = List.mem_assoc k !model)
               (List.init 16 Fun.id))
        ops)

(* Randomized 100k-op trace driving the binary and 4-ary heaps in lockstep:
   their (prio, key) ordering is defined to be identical, so every pop and
   every min must agree exactly. The binary heap takes [replace_min] as
   drop-min + add. *)
let test_binary_vs_4ary_trace () =
  let rng = Random.State.make [| 0x5EED |] in
  let ih = IH.create 16 and ih4 = IH4.create 16 in
  let n_keys = 256 in
  for step = 1 to 100_000 do
    let k = Random.State.int rng n_keys in
    let p = Random.State.float rng 1000.0 in
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      if IH.mem ih k then begin
        IH.update ih ~key:k ~prio:p;
        IH4.update ih4 ~key:k ~prio:p
      end
      else begin
        IH.add ih ~key:k ~prio:p;
        IH4.add ih4 ~key:k ~prio:p
      end
    | 4 | 5 ->
      IH.remove ih k;
      IH4.remove ih4 k
    | 6 ->
      let a = IH.pop_min ih and b = IH4.pop_min ih4 in
      if a <> b then Alcotest.failf "pop mismatch at step %d" step
    | 7 ->
      if replace_ok ~length:(IH4.length ih4) ~mem:(IH4.mem ih4 k) ~min_key:(IH4.min_key ih4) k
      then begin
        IH_ref.replace_min ih ~key:k ~prio:p;
        IH4.replace_min ih4 ~key:k ~prio:p
      end
    | _ ->
      IH.add_or_update ih ~key:k ~prio:p;
      IH4.add_or_update ih4 ~key:k ~prio:p);
    if IH.min_binding ih <> IH4.min_binding ih4 then
      Alcotest.failf "min mismatch at step %d" step;
    if IH.length ih <> IH4.length ih4 then
      Alcotest.failf "length mismatch at step %d" step;
    if not (IH.check_invariant ih && IH4.check_invariant ih4) then
      Alcotest.failf "invariant broken at step %d" step
  done;
  Alcotest.(check bool) "invariants after trace" true
    (IH.check_invariant ih && IH4.check_invariant ih4);
  let rec drain n =
    let a = IH.pop_min ih and b = IH4.pop_min ih4 in
    if a <> b then Alcotest.fail "drain mismatch";
    if a = None then n else drain (n + 1)
  in
  ignore (drain 0);
  Alcotest.(check bool) "both drained" true (IH.is_empty ih && IH4.is_empty ih4)

(* The binary, 4-ary and int heaps in lockstep on a tie-dense trace: every
   priority is an integer below 48, exact as a float. The int heap is a
   second 4-ary heap filed the way the fixed-point WF2Q+ files its ticks,
   by [Sched.Fixed.prio] of the int; its minima and pops are read back
   through [Fixed.ticks_of_prio] and must equal the int priorities. Most
   fans hold equal priorities. The size climbs through every value to
   ~18,000, over four times the 4-ary heaps' tournament bound
   [Indexed_heap4.cold] (checked), and falls back to 0, so fans below
   and beyond the bound, full and partial, all run. Every op runs,
   [update] in both directions.
   The int heap, like the binary one, takes [replace_min] as drop-min +
   add. *)
let test_three_heaps_tie_dense () =
  let rng = Random.State.make [| 0x71E5 |] in
  let ih = IH.create 16 and ih4 = IH4.create 16 and ihi = IH4.create 16 in
  let n_keys = 24_000 and steps = 160_000 in
  let prio = Sched.Fixed.prio in
  let as_float =
    Option.map (fun (k, p) -> (k, float_of_int (Sched.Fixed.ticks_of_prio p)))
  in
  let peak = ref 0 in
  let check_invariants step =
    if not (IH.check_invariant ih && IH4.check_invariant ih4 && IH4.check_invariant ihi)
    then Alcotest.failf "invariant broken at step %d" step
  in
  for step = 1 to steps do
    let k = Random.State.int rng n_keys and pi = Random.State.int rng 48 in
    let p = float_of_int pi in
    (* growing in the first half, shrinking in the second *)
    let r = if step <= steps / 2 then Random.State.int rng 18 else 8 + Random.State.int rng 20 in
    (if r < 10 then begin
       IH.add_or_update ih ~key:k ~prio:p;
       IH4.add_or_update ih4 ~key:k ~prio:p;
       IH4.add_or_update ihi ~key:k ~prio:(prio pi)
     end
     else if r < 13 then begin
       if IH.mem ih k then begin
         IH.update ih ~key:k ~prio:p;
         IH4.update ih4 ~key:k ~prio:p;
         IH4.update ihi ~key:k ~prio:(prio pi)
       end
     end
     else if r < 16 then begin
       if replace_ok ~length:(IH4.length ih4) ~mem:(IH4.mem ih4 k) ~min_key:(IH4.min_key ih4) k
       then begin
         IH_ref.replace_min ih ~key:k ~prio:p;
         IH4.replace_min ih4 ~key:k ~prio:p;
         IH4.drop_min ihi;
         IH4.add ihi ~key:k ~prio:(prio pi)
       end
     end
     else if r < 18 then begin
       IH.remove ih k;
       IH4.remove ih4 k;
       IH4.remove ihi k
     end
     else begin
       let a = IH.pop_min ih and b = IH4.pop_min ih4 in
       if a <> b || a <> as_float (IH4.pop_min ihi) then
         Alcotest.failf "pop mismatch at step %d" step
     end);
    let m = IH.min_binding ih in
    if m <> IH4.min_binding ih4 || m <> as_float (IH4.min_binding ihi) then
      Alcotest.failf "min mismatch at step %d" step;
    if IH.length ih <> IH4.length ih4 || IH.length ih <> IH4.length ihi then
      Alcotest.failf "length mismatch at step %d" step;
    peak := max !peak (IH4.length ih4);
    if step mod 1000 = 0 then check_invariants step
  done;
  check_invariants steps;
  if !peak <= 4 * IH4.cold then Alcotest.failf "peak size %d within 4 x cold" !peak;
  let rec drain n =
    let a = IH.pop_min ih and b = IH4.pop_min ih4 in
    if a <> b || a <> as_float (IH4.pop_min ihi) then Alcotest.failf "drain mismatch at pop %d" n;
    if a <> None then drain (n + 1)
  in
  drain 0

(* [Fixed.prio] orders ticks exactly as the ints: on the edges of the
   double format (2^52, where subnormal patterns turn normal; 2^53, past
   which [float_of_int] rounds) and at [max_int], and on random ints. *)
let prop_fixed_prio_order =
  let module F = Sched.Fixed in
  let edges = [ 0; 1; (1 lsl 52) - 1; 1 lsl 52; (1 lsl 53) + 1; max_int - 1; max_int ] in
  let tick =
    QCheck.Gen.(oneof [ oneofl edges; map (fun x -> x land max_int) int ])
  in
  QCheck.Test.make ~count:2000 ~name:"Fixed.prio orders ticks exactly as ints"
    (QCheck.make ~print:QCheck.Print.(pair int int) (QCheck.Gen.pair tick tick))
    (fun (a, b) ->
      compare a b = Float.compare (F.prio a) (F.prio b)
      && F.prio a = F.prio b = (a = b)
      && F.ticks_of_prio (F.prio a) = a
      && F.ticks_of_prio (F.prio b) = b)

let test_ih4_unsafe_accessors () =
  let h = IH4.create 4 in
  Alcotest.(check int) "empty min_key_unsafe" (-1) (IH4.min_key_unsafe h);
  Alcotest.(check bool) "empty min_prio_unsafe is nan" true
    (Float.is_nan (IH4.min_prio_unsafe h));
  IH4.add h ~key:3 ~prio:2.5;
  IH4.add h ~key:1 ~prio:7.0;
  Alcotest.(check int) "min_key_unsafe" 3 (IH4.min_key_unsafe h);
  Alcotest.(check (float 1e-12)) "min_prio_unsafe" 2.5 (IH4.min_prio_unsafe h);
  IH4.drop_min h;
  Alcotest.(check int) "after drop_min" 1 (IH4.min_key_unsafe h);
  IH4.drop_min h;
  IH4.drop_min h; (* no-op on empty *)
  Alcotest.(check bool) "empty again" true (IH4.is_empty h)

let test_ih4_replace_min_contract () =
  let h = IH4.create 4 in
  Alcotest.check_raises "empty heap"
    (Invalid_argument "Indexed_heap4.replace_min: empty heap") (fun () ->
      IH4.replace_min h ~key:0 ~prio:1.0);
  IH4.add h ~key:0 ~prio:1.0;
  IH4.add h ~key:1 ~prio:2.0;
  Alcotest.check_raises "key present below the root"
    (Invalid_argument "Indexed_heap4.replace_min: key present") (fun () ->
      IH4.replace_min h ~key:1 ~prio:0.5);
  IH4.replace_min h ~key:0 ~prio:3.0; (* the root's own key: an increase-key *)
  Alcotest.(check (option (pair int (float 0.0)))) "root key re-entered" (Some (1, 2.0))
    (IH4.min_binding h);
  IH4.replace_min h ~key:9 ~prio:2.5; (* beyond initial capacity: must grow *)
  Alcotest.(check bool) "old root gone" false (IH4.mem h 1);
  Alcotest.(check (option (pair int (float 0.0)))) "new key placed" (Some (9, 2.5))
    (IH4.min_binding h);
  Alcotest.(check int) "length kept" 2 (IH4.length h);
  Alcotest.(check bool) "invariant" true (IH4.check_invariant h)

let () =
  Alcotest.run "prioq"
    [
      ( "indexed_heap",
        [
          Alcotest.test_case "basic" `Quick test_ih_basic;
          Alcotest.test_case "update both directions" `Quick test_ih_update_both_directions;
          Alcotest.test_case "remove" `Quick test_ih_remove;
          Alcotest.test_case "pop_min drain" `Quick test_ih_pop_min_drain;
          Alcotest.test_case "deterministic ties" `Quick test_ih_ties_deterministic;
          Alcotest.test_case "duplicate add rejected" `Quick test_ih_add_duplicate_rejected;
        ] );
      ( "indexed_heap_model",
        [
          QCheck_alcotest.to_alcotest
            (prop_heap_matches_model (module IH_ref) "binary indexed heap");
          QCheck_alcotest.to_alcotest
            (prop_heap_matches_model (module Prioq.Indexed_heap4) "4-ary indexed heap");
          Alcotest.test_case "binary vs 4-ary 100k-op trace" `Quick
            test_binary_vs_4ary_trace;
          Alcotest.test_case "binary, 4-ary and int heaps, tie-dense 24k-key lockstep" `Quick
            test_three_heaps_tie_dense;
          QCheck_alcotest.to_alcotest prop_fixed_prio_order;
          Alcotest.test_case "4-ary unsafe accessors" `Quick test_ih4_unsafe_accessors;
          Alcotest.test_case "4-ary replace_min contract" `Quick test_ih4_replace_min_contract;
        ] );
    ]
