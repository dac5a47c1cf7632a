(* Integer-priority twin of {!Indexed_heap4}: a 4-ary tree with
   iterative hole sifts (see that module for the rationale). Each
   (prio, key) pair is interleaved in one int slab, the layout
   {!Indexed_heap4} kept before it split priorities and keys into two
   arrays. This heap runs only the fixed-point engine (the float engine's
   oracle, and the churn bench's), where the split was not measured. The
   other differences are forced by the element type:

   - the slab is an [int array] — no boxing question arises, and the
     scratch-buffer handoff of the float heap is unnecessary (int
     arguments are immediate), so the sifts take the moving element as
     plain arguments;
   - the empty-slot sentinel pair is (max_int, -1) instead of (nan, -1.),
     which is why priorities must stay below [max_int];
   - comparisons are exact machine-int compares, the point of the whole
     exercise: the fixed-point WF2Q+ engine's eligibility and min-F tests
     carry no epsilon slack.

   Sift-down shares {!Indexed_heap4}'s child pick and its bound
   {!Indexed_heap4.cold}: a branch-free tournament on the priorities of
   full fans that start below it, with ties, partial fans and deeper
   fans left to the loop. churn-guard divides fixed-point churn, which
   runs on this heap, by an {!Indexed_heap4} hold, so the two heaps keep
   one rule.

   Ordering (priority, then key) matches Indexed_heap4 exactly, so on a
   trace whose float priorities are exactly representable the two heaps
   pop identical sequences — the fixed-vs-float differential test in
   test/test_lifecycle.ml depends on this. *)

type t = {
  mutable data : int array;
  (* data.(2i) = priority of heap slot i; data.(2i+1) = its key.
     Slots >= size hold the sentinels (max_int, -1). *)
  mutable pos : int array; (* key -> heap slot, or -1 *)
  mutable size : int;
}

let create capacity =
  let capacity = max 1 capacity in
  let data = Array.make (2 * capacity) max_int in
  for i = 0 to capacity - 1 do
    data.((2 * i) + 1) <- -1
  done;
  { data; pos = Array.make capacity (-1); size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let ensure_key_capacity h key =
  let n = Array.length h.pos in
  if key >= n then begin
    let n' = max (key + 1) (2 * n) in
    let pos = Array.make n' (-1) in
    Array.blit h.pos 0 pos 0 n;
    h.pos <- pos
  end

let ensure_slot_capacity h =
  let n = Array.length h.data / 2 in
  if h.size = n then begin
    let data = Array.make (4 * n) max_int in
    Array.blit h.data 0 data 0 (2 * n);
    for i = n to (2 * n) - 1 do
      data.((2 * i) + 1) <- -1
    done;
    h.data <- data
  end

let mem h key = key >= 0 && key < Array.length h.pos && h.pos.(key) >= 0

(* Indices stay within [0, size) and keys within [0, length pos) by the
   structure's invariants, so the loop bodies use unsafe accesses; the
   public entry points validate keys before calling in. *)

let sift_up h i ~prio ~key =
  let data = h.data and pos = h.pos in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pp = Array.unsafe_get data (2 * parent) in
    let pk = Array.unsafe_get data ((2 * parent) + 1) in
    if prio < pp || (prio = pp && key < pk) then begin
      Array.unsafe_set data (2 * !i) pp;
      Array.unsafe_set data ((2 * !i) + 1) pk;
      Array.unsafe_set pos pk !i;
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set data (2 * !i) prio;
  Array.unsafe_set data ((2 * !i) + 1) key;
  Array.unsafe_set pos key !i;
  !i

let sift_down h i ~prio ~key =
  let data = h.data and pos = h.pos in
  let size = h.size in
  (* a fan starting at [base] is full and warm iff [base < full_warm] *)
  let full_warm = if size - 3 < Indexed_heap4.cold then size - 3 else Indexed_heap4.cold in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let base = (4 * !i) + 1 in
    if base >= size then moving := false
    else begin
      (* {!Indexed_heap4.sift_down}'s tournament over the priorities at
         [data.(2c)]: -1 after a tie, for the loop *)
      let t =
        if base < full_warm then begin
          let p1 = Array.unsafe_get data (2 * base)
          and p2 = Array.unsafe_get data ((2 * base) + 2)
          and p3 = Array.unsafe_get data ((2 * base) + 4)
          and p4 = Array.unsafe_get data ((2 * base) + 6) in
          let w12 = base + Bool.to_int (p2 < p1) in
          let w34 = base + 2 + Bool.to_int (p4 < p3) in
          let q12 = Array.unsafe_get data (2 * w12) and q34 = Array.unsafe_get data (2 * w34) in
          if Bool.to_int (p1 = p2) lor Bool.to_int (p3 = p4) lor Bool.to_int (q12 = q34) = 0
          then w12 + ((w34 - w12) land -Bool.to_int (q34 < q12))
          else -1
        end
        else -1
      in
      let b =
        if t >= 0 then t
        else begin
          let last = if base + 3 < size then base + 3 else size - 1 in
          let best = ref base in
          let best_prio = ref (Array.unsafe_get data (2 * base)) in
          let best_key = ref (Array.unsafe_get data ((2 * base) + 1)) in
          for c = base + 1 to last do
            let cp = Array.unsafe_get data (2 * c) in
            let ck = Array.unsafe_get data ((2 * c) + 1) in
            if cp < !best_prio || (cp = !best_prio && ck < !best_key) then begin
              best := c;
              best_prio := cp;
              best_key := ck
            end
          done;
          !best
        end
      in
      let best_prio = Array.unsafe_get data (2 * b) in
      let best_key = Array.unsafe_get data ((2 * b) + 1) in
      if best_prio < prio || (best_prio = prio && best_key < key) then begin
        Array.unsafe_set data (2 * !i) best_prio;
        Array.unsafe_set data ((2 * !i) + 1) best_key;
        Array.unsafe_set pos best_key !i;
        i := b
      end
      else moving := false
    end
  done;
  Array.unsafe_set data (2 * !i) prio;
  Array.unsafe_set data ((2 * !i) + 1) key;
  Array.unsafe_set pos key !i

let add h ~key ~prio =
  if key < 0 then invalid_arg "Indexed_heap_int.add: negative key";
  ensure_key_capacity h key;
  if h.pos.(key) >= 0 then invalid_arg "Indexed_heap_int.add: key present";
  ensure_slot_capacity h;
  let i = h.size in
  h.size <- h.size + 1;
  ignore (sift_up h i ~prio ~key)

let update h ~key ~prio =
  if not (mem h key) then invalid_arg "Indexed_heap_int.update: key absent";
  let i = h.pos.(key) in
  let i = sift_up h i ~prio ~key in
  sift_down h i ~prio ~key

let add_or_update h ~key ~prio =
  if mem h key then update h ~key ~prio else add h ~key ~prio

let remove_slot h i =
  let last = h.size - 1 in
  h.pos.(h.data.((2 * i) + 1)) <- -1;
  h.size <- last;
  if i <> last then begin
    let prio = h.data.(2 * last) and key = h.data.((2 * last) + 1) in
    let i = sift_up h i ~prio ~key in
    sift_down h i ~prio ~key
  end;
  h.data.(2 * last) <- max_int;
  h.data.((2 * last) + 1) <- -1

let remove h key = if mem h key then remove_slot h h.pos.(key)

let min_key h = if h.size = 0 then None else Some h.data.(1)
let min_prio h = if h.size = 0 then None else Some h.data.(0)
let min_binding h = if h.size = 0 then None else Some (h.data.(1), h.data.(0))

(* Slots beyond [size] always hold the (max_int, -1) sentinels, so reading
   slot 0 of an empty heap yields them directly. *)
let min_key_unsafe h = h.data.(1)
let min_prio_unsafe h = h.data.(0)

let drop_min h = if h.size > 0 then remove_slot h 0

let pop_min h =
  match min_binding h with
  | None -> None
  | Some binding ->
    remove_slot h 0;
    Some binding

let prio_of h key = if mem h key then Some h.data.(2 * h.pos.(key)) else None

let iter f h =
  for i = 0 to h.size - 1 do
    f h.data.((2 * i) + 1) h.data.(2 * i)
  done

let clear h =
  for i = 0 to h.size - 1 do
    h.pos.(h.data.((2 * i) + 1)) <- -1;
    h.data.(2 * i) <- max_int;
    h.data.((2 * i) + 1) <- -1
  done;
  h.size <- 0

let check_invariant h =
  let prio i = h.data.(2 * i) and key i = h.data.((2 * i) + 1) in
  let before i j =
    let c = compare (prio i) (prio j) in
    if c <> 0 then c < 0 else key i < key j
  in
  let ok = ref true in
  for i = 1 to h.size - 1 do
    if before i ((i - 1) / 4) then ok := false
  done;
  for i = 0 to h.size - 1 do
    if h.pos.(key i) <> i then ok := false
  done;
  for i = h.size to (Array.length h.data / 2) - 1 do
    if key i <> -1 then ok := false
  done;
  for k = 0 to Array.length h.pos - 1 do
    let p = h.pos.(k) in
    if p >= 0 && (p >= h.size || key p <> k) then ok := false
  done;
  !ok
