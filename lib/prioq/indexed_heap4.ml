(* 4-ary indexed min-heap: same contract as {!Indexed_heap}, tuned for the
   scheduler hot path. Rationale:

   - a 4-ary tree halves the depth, so increase-key/sift-down (the common
     direction under the WF2Q+ churn of remove-min + re-add) touches half
     as many levels;
   - struct-of-arrays: priorities in one float array, keys in an int
     array. The four children of slot [i] are [prio.(4i+1 .. 4i+4)], the
     32 contiguous bytes every comparison fan reads; a key is read only on
     a priority tie and when an element moves. This replaced one float
     array interleaving (priority, key) pairs, whose fan spans 64 bytes
     and stores keys as floats: a one-node WF2Q+ kernel select + requeue
     cycle at N = 4096 (release, 2-vCPU host, min of 8 interleaved runs)
     went from 346 to 297 ns on the layout alone;
   - sifts are iterative hole-moves: the displaced element is held in
     locals and written back once, instead of pairwise [swap]s that write
     every element twice and bounce through [pos] at each level;
   - the priority being sifted enters through the one-cell [scratch]
     buffer rather than a float function argument: without flambda every
     float argument to a non-inlined call is boxed on the minor heap, and
     the sifts are far too big to inline. The key is an int and crosses
     the call unboxed;
   - [replace_min] swaps the root for a new element in one sift-down,
     where [drop_min] + [add] costs a sift-up and a sift-down for the
     removal and another sift-up for the insertion;
   - sift-down picks the least of four children by a tournament when the
     fan is full and starts below [cold]: the two pair winners, then the
     winner of those, each compare feeding index arithmetic, not a branch.
     The loop of [if]s it replaces mispredicts about once per level, as
     the least child is effectively random. It compares priorities only,
     so it is exact only without ties; two children can share the least
     priority only inside one pair ([p1 = p2], [p3 = p4]) or one in each,
     and then the pair winners tie ([q12 = q34]). Any of the three sends
     the fan to the loop, through one rarely taken branch. A tournament
     on (priority, key) needs no tie test but reads four keys at every
     level: with it [port_4k] lost 10 of 10 alternating pairs to this
     rule (0.91x). Replaying ties by such a tournament instead of the
     loop won 4 of 5 [subtree_overload] pairs, where ~40% of fans tie,
     by ~6%, for a second copy of the pick; not kept.
     Every fan ties with equal-weight sessions and equal packets, and
     there the tournament is wasted work before the loop: the one-level
     WF2Q+ cycle at 4,096 such sessions reads 234 ns against the loop
     alone's 208 (min of 6 alternating rounds; 217 with the (priority,
     key) tournament). Partial fans keep the loop, and so do fans from slot
     [cold] = 4,096 down, which a heap past ~4,096 keys keeps out of
     cache: there the predicted branch lets the next level's loads
     start early, while the tournament waits for them. [bench heaps]
     holds, release, 2-vCPU host, the loop everywhere vs this rule: the
     least of 4 alternating runs, and the median ratio of the 4 pairs:

       keys       replace_min            drop_min + add
       4,096      122 -> 72 ns  (0.60)   134 -> 89 ns  (0.65)
       65,536     163 -> 149 ns (0.88)   176 -> 163 ns (0.88)
       10^6       402 -> 399 ns (1.02)   425 -> 425 ns (1.03)

     With the tournament at every level the 10^6 rows read 1.4-1.6x the
     loop's; with [cold] = 16,384 the 10^6 row of the int-priority
     twin this heap had then read a few percent slower than the loop's.

   Ordering is identical to {!Indexed_heap} (priority, then key), so the
   two structures pop identical sequences on identical op traces — the
   model-based test in test/test_prioq.ml drives both against a reference
   model and against each other. Priorities must not be NaN. *)

type t = {
  mutable prio : float array; (* priority of heap slot i; nan for i >= size *)
  mutable keys : int array; (* key of heap slot i; -1 for i >= size *)
  mutable pos : int array; (* key -> heap slot, or -1 *)
  mutable size : int;
  scratch : float array; (* [| prio |] handoff into the sifts *)
}

let create capacity =
  let capacity = max 1 capacity in
  {
    prio = Array.make capacity nan;
    keys = Array.make capacity (-1);
    pos = Array.make capacity (-1);
    size = 0;
    scratch = [| nan |];
  }

(* The loop-free entry points below carry [@inline]: without flambda,
   a float argument ([~prio]) or float return crossing a non-inlined call
   boundary is boxed on the minor heap. Inlining the wrappers lets the
   floats flow straight into/out of the arrays; the sift loops themselves
   stay out-of-line (Closure refuses to inline loops) and are reached
   through the [scratch] handoff, which is allocation-free. *)

let[@inline] length h = h.size
let[@inline] is_empty h = h.size = 0

let grow_keys h key =
  let n = Array.length h.pos in
  let pos = Array.make (max (key + 1) (2 * n)) (-1) in
  Array.blit h.pos 0 pos 0 n;
  h.pos <- pos

(* the test inline, the rare grow out of line: [add] and [replace_min]
   make no call for it *)
let[@inline] ensure_key_capacity h key = if key >= Array.length h.pos then grow_keys h key

let ensure_slot_capacity h =
  let n = Array.length h.prio in
  if h.size = n then begin
    let prio = Array.make (2 * n) nan and keys = Array.make (2 * n) (-1) in
    Array.blit h.prio 0 prio 0 n;
    Array.blit h.keys 0 keys 0 n;
    h.prio <- prio;
    h.keys <- keys
  end

let[@inline] mem h key = key >= 0 && key < Array.length h.pos && h.pos.(key) >= 0

(* Both sifts move the element ([scratch.(0)], [key]). Indices stay within
   [0, size) and keys within [0, length pos) by the structure's
   invariants, so the loop bodies use unsafe accesses; the public entry
   points validate keys before calling in. *)

(* Slide ancestors down until the element fits, then write it once. [i]'s
   slot contents are treated as a hole throughout. Returns the final
   slot. *)
let sift_up h i key =
  let prio = h.prio and keys = h.keys and pos = h.pos in
  let p = Array.unsafe_get h.scratch 0 in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pp = Array.unsafe_get prio parent in
    if p < pp || (p = pp && key < Array.unsafe_get keys parent) then begin
      let pk = Array.unsafe_get keys parent in
      Array.unsafe_set prio !i pp;
      Array.unsafe_set keys !i pk;
      Array.unsafe_set pos pk !i;
      i := parent
    end
    else moving := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set keys !i key;
  Array.unsafe_set pos key !i;
  !i

(* Fans whose first child sits below this slot are picked by the
   tournament in [sift_down]; deeper fans, the ones a heap of more than
   ~4,096 keys keeps out of cache, by the loop. *)
let cold = 4096

(* Slide the smallest child up into the hole until the element fits. The
   children of [i] are the slots [4i+1 .. 4i+4]. *)
let sift_down h i key =
  let prio = h.prio and keys = h.keys and pos = h.pos in
  let size = h.size in
  (* a fan starting at [base] is full and warm iff [base < full_warm] *)
  let full_warm = if size - 3 < cold then size - 3 else cold in
  let p = Array.unsafe_get h.scratch 0 in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let base = (!i lsl 2) + 1 in
    if base >= size then moving := false
    else begin
      (* The tournament: the two pair winners, then theirs, every compare
         feeding index arithmetic, not a branch. On priorities alone it
         is exact only without ties, so a tie within a pair or between
         the pair winners leaves it at -1, for the loop. *)
      let t =
        if base < full_warm then begin
          let p1 = Array.unsafe_get prio base
          and p2 = Array.unsafe_get prio (base + 1)
          and p3 = Array.unsafe_get prio (base + 2)
          and p4 = Array.unsafe_get prio (base + 3) in
          let w12 = base + Bool.to_int (p2 < p1) in
          let w34 = base + 2 + Bool.to_int (p4 < p3) in
          let q12 = Array.unsafe_get prio w12 and q34 = Array.unsafe_get prio w34 in
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
          let best_prio = ref (Array.unsafe_get prio base) in
          for c = base + 1 to last do
            let cp = Array.unsafe_get prio c in
            if
              cp < !best_prio
              || (cp = !best_prio && Array.unsafe_get keys c < Array.unsafe_get keys !best)
            then begin
              best := c;
              best_prio := cp
            end
          done;
          !best
        end
      in
      let best_prio = Array.unsafe_get prio b in
      if best_prio < p || (best_prio = p && Array.unsafe_get keys b < key) then begin
        let bk = Array.unsafe_get keys b in
        Array.unsafe_set prio !i best_prio;
        Array.unsafe_set keys !i bk;
        Array.unsafe_set pos bk !i;
        i := b
      end
      else moving := false
    end
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set keys !i key;
  Array.unsafe_set pos key !i

let[@inline] add h ~key ~prio =
  if key < 0 then invalid_arg "Indexed_heap4.add: negative key";
  ensure_key_capacity h key;
  if h.pos.(key) >= 0 then invalid_arg "Indexed_heap4.add: key present";
  ensure_slot_capacity h;
  let i = h.size in
  h.size <- h.size + 1;
  h.scratch.(0) <- prio;
  ignore (sift_up h i key)

let[@inline] update h ~key ~prio =
  if not (mem h key) then invalid_arg "Indexed_heap4.update: key absent";
  h.scratch.(0) <- prio;
  let i = sift_up h h.pos.(key) key in
  sift_down h i key

let add_or_update h ~key ~prio =
  if mem h key then update h ~key ~prio else add h ~key ~prio

let[@inline] replace_min h ~key ~prio =
  if h.size = 0 then invalid_arg "Indexed_heap4.replace_min: empty heap";
  let root = h.keys.(0) in
  if key <> root then begin
    if key < 0 then invalid_arg "Indexed_heap4.replace_min: negative key";
    ensure_key_capacity h key;
    if h.pos.(key) >= 0 then invalid_arg "Indexed_heap4.replace_min: key present";
    h.pos.(root) <- -1
  end;
  h.scratch.(0) <- prio;
  sift_down h 0 key

let remove_slot h i =
  let last = h.size - 1 in
  h.pos.(h.keys.(i)) <- -1;
  h.size <- last;
  if i <> last then begin
    (* Re-insert the former last element at the hole [i]; as in
       {!Indexed_heap.remove_slot}, sift_up-then-sift_down on slot [i]
       fixes both possible violation directions. *)
    let key = h.keys.(last) in
    h.scratch.(0) <- h.prio.(last);
    let i = sift_up h i key in
    sift_down h i key
  end;
  h.prio.(last) <- nan;
  h.keys.(last) <- -1

let[@inline] remove h key = if mem h key then remove_slot h h.pos.(key)

let min_key h = if h.size = 0 then None else Some h.keys.(0)
let min_prio h = if h.size = 0 then None else Some h.prio.(0)
let min_binding h = if h.size = 0 then None else Some (h.keys.(0), h.prio.(0))

(* Allocation-free variants for hot paths: slots beyond [size] always hold
   the (nan, -1) sentinels, so reading slot 0 of an empty heap yields
   them directly. *)
let[@inline] min_key_unsafe h = h.keys.(0)
let[@inline] min_prio_unsafe h = h.prio.(0)

let[@inline] drop_min h = if h.size > 0 then remove_slot h 0

let pop_min h =
  match min_binding h with
  | None -> None
  | Some binding ->
    remove_slot h 0;
    Some binding

let prio_of h key = if mem h key then Some h.prio.(h.pos.(key)) else None

let iter f h =
  for i = 0 to h.size - 1 do
    f h.keys.(i) h.prio.(i)
  done

let clear h =
  for i = 0 to h.size - 1 do
    h.pos.(h.keys.(i)) <- -1;
    h.prio.(i) <- nan;
    h.keys.(i) <- -1
  done;
  h.size <- 0

let check_invariant h =
  let before i j =
    let c = compare h.prio.(i) h.prio.(j) in
    if c <> 0 then c < 0 else h.keys.(i) < h.keys.(j)
  in
  let ok = ref (Array.length h.keys = Array.length h.prio) in
  for i = 1 to h.size - 1 do
    if before i ((i - 1) / 4) then ok := false
  done;
  for i = 0 to h.size - 1 do
    if h.pos.(h.keys.(i)) <> i then ok := false
  done;
  for i = h.size to Array.length h.keys - 1 do
    if h.keys.(i) <> -1 || not (Float.is_nan h.prio.(i)) then ok := false
  done;
  for k = 0 to Array.length h.pos - 1 do
    let p = h.pos.(k) in
    if p >= 0 && (p >= h.size || h.keys.(p) <> k) then ok := false
  done;
  !ok
