open Sched
module Ih = Prioq.Indexed_heap4

(* A node with at most this many slots files its slots by their state
   byte alone and selects by scanning its arena slice; wider nodes keep
   the eligible/waiting heaps. On small nodes the heaps' out-of-line
   sifts, position upkeep and [scratch] handoff cost more than reading a
   few adjacent stamps (64 bytes per float arena at 8 slots); fixed by
   the tree's shape, never by an option (DESIGN.md §11). *)
let scan_max = 8

(* The slot state byte. A heap node only tells idle from backlogged; a
   scan node's byte is also its filing. *)
let st_idle = '\000'
let st_eligible = '\001' (* S_i <= V; on a heap node: backlogged *)
let st_waiting = '\002' (* S_i > V; scan nodes only *)

(* Every field is a plain array indexed by node id, or by the arena index
   [sbase.(node) + slot] for per-(node, session) state, so floats stay
   unboxed: a mixed int/float record would box every stamp store. The
   arena fields are mutable only for [grow], which replaces them with
   longer copies. *)
type t = {
  rate : float array; (* r_n: the node's server rate *)
  v : float array; (* V, post-dated to the last selection's completion *)
  v_time : float array; (* server time of that completion *)
  backlogged_count : int array;
  eligible : Ih.t array; (* S_i <= V, keyed by F_i *)
  waiting : Ih.t array; (* S_i >  V, keyed by S_i *)
  observers : Sched_intf.observer option array;
  sbase : int array;
  scan : int array; (* slot count of a scan node, 0 for a heap node *)
  handoff : float array; (* V(now) into [scan_select], threshold out *)
  mutable s_rate : float array; (* r_i *)
  mutable s_start : float array; (* S_i of the head packet *)
  mutable s_finish : float array; (* F_i of the head packet *)
  mutable s_head : float array; (* size of the head packet *)
  mutable s_state : Bytes.t; (* [st_idle], [st_eligible] or [st_waiting] *)
}

let create ~rate ~slots =
  let n = Array.length rate in
  let sbase = Array.make n 0 in
  let total = ref 0 in
  for node = 0 to n - 1 do
    sbase.(node) <- !total;
    total := !total + slots.(node)
  done;
  let arena = max 1 !total in
  let scan = Array.map (fun s -> if s <= scan_max then s else 0) slots in
  (* Nodes without slots (a hierarchy's leaves, or a one-node instance
     before its first [grow]) and scan nodes share one heap pair; only a
     slotless node that then gains sessions ever touches it. *)
  let idle_e = Ih.create 1 and idle_w = Ih.create 1 in
  let heaps idle =
    Array.init n (fun node ->
        if slots.(node) = 0 || scan.(node) > 0 then idle else Ih.create slots.(node))
  in
  {
    rate;
    v = Array.make n 0.0;
    v_time = Array.make n 0.0;
    backlogged_count = Array.make n 0;
    eligible = heaps idle_e;
    waiting = heaps idle_w;
    observers = Array.make n None;
    sbase;
    scan;
    handoff = Array.make n 0.0;
    s_rate = Array.make arena 0.0;
    s_start = Array.make arena 0.0;
    s_finish = Array.make arena 0.0;
    s_head = Array.make arena 0.0;
    s_state = Bytes.make arena st_idle;
  }

let grow k n =
  let cap = Array.length k.s_rate in
  if n > cap then begin
    let cap' = max 16 (max n (2 * cap)) in
    let grow a =
      let b = Array.make cap' 0.0 in
      Array.blit a 0 b 0 cap;
      b
    in
    k.s_rate <- grow k.s_rate;
    k.s_start <- grow k.s_start;
    k.s_finish <- grow k.s_finish;
    k.s_head <- grow k.s_head;
    let b = Bytes.make cap' st_idle in
    Bytes.blit k.s_state 0 b 0 cap;
    k.s_state <- b
  end

let[@inline] observer k node = k.observers.(node)
let set_observer k node o = k.observers.(node) <- o
let[@inline] backlogged_count k node = k.backlogged_count.(node)

let[@inline] is_backlogged k node slot =
  Bytes.get k.s_state (k.sbase.(node) + slot) <> st_idle

(* The V(t)+τ term of eq. 27. V is post-dated to [v_time], the completion
   of the last committed packet; V is linear (slope 1) through that span
   and across any idle gap after it, so V(now) interpolates both ways:
   backwards for an arrival landing mid-transmission, forwards across idle
   time. Clamping the backward case at V would inflate eq. 28's
   S = max(F, V(a)) stamps and leak guaranteed bandwidth (caught by the
   Thm 4.3 property test). *)
let[@inline] linear_v k node ~now = k.v.(node) +. (now -. k.v_time.(node))

(* [Float.max] is an external call whose float arguments box without
   flambda. Bit-identical for this code's value domain (no NaNs, no mixed
   signed zeros; ties return the first argument in both). *)
let[@inline] fmax (x : float) y = if y > x then y else x

let[@inline] place k node slot =
  let i = k.sbase.(node) + slot in
  let eligible = Float_cmp.le_with_slack k.s_start.(i) k.v.(node) in
  if k.scan.(node) > 0 then Bytes.set k.s_state i (if eligible then st_eligible else st_waiting)
  else if eligible then Ih.add k.eligible.(node) ~key:slot ~prio:k.s_finish.(i)
  else Ih.add k.waiting.(node) ~key:slot ~prio:k.s_start.(i)

(* A scan node has no heaps: the [place] or idle mark that follows
   rewrites the slot's byte. *)
let[@inline] unplace k node slot =
  if k.scan.(node) = 0 then begin
    Ih.remove k.eligible.(node) slot;
    Ih.remove k.waiting.(node) slot
  end

let[@inline] enqueue k node slot ~now ~head_bits =
  Bytes.set k.s_state (k.sbase.(node) + slot) st_eligible;
  k.backlogged_count.(node) <- k.backlogged_count.(node) + 1;
  place k node slot;
  match k.observers.(node) with
  | None -> ()
  | Some o ->
    o.Sched_intf.on_backlog ~now ~vtime:(linear_v k node ~now) ~session:slot ~head_bits

let[@inline] backlog k node slot ~now ~head_bits =
  let i = k.sbase.(node) + slot in
  (* eq. 28, empty-queue branch: S = max(F, V(now)) *)
  let start = fmax k.s_finish.(i) (linear_v k node ~now) in
  k.s_start.(i) <- start;
  k.s_finish.(i) <- start +. (head_bits /. k.s_rate.(i));
  k.s_head.(i) <- head_bits;
  enqueue k node slot ~now ~head_bits

let[@inline] requeue k node slot ~now ~head_bits =
  let i = k.sbase.(node) + slot in
  (* eq. 28, busy branch: S = F *)
  let start = k.s_finish.(i) in
  let finish = start +. (head_bits /. k.s_rate.(i)) in
  k.s_start.(i) <- start;
  k.s_finish.(i) <- finish;
  k.s_head.(i) <- head_bits;
  if k.scan.(node) > 0 then place k node slot
  else begin
    (* The requeued session usually sits in the eligible set (it was just
       selected from there); while it stays eligible an in-place
       increase-key replaces the remove+add pair. *)
    let e = k.eligible.(node) in
    if Ih.mem e slot then
      if Float_cmp.le_with_slack start k.v.(node) then Ih.update e ~key:slot ~prio:finish
      else begin
        let w = k.waiting.(node) in
        (* The swap: when the slot is still the eligible root and the
           waiting head x has S_x <= V(now), the next [select] promotes x
           whatever else happens first (its threshold is at least V(now),
           as V only moves in [commit] and time does not run backwards),
           so x trades places with the slot now: two sift-downs instead
           of this removal, the waiting insert and that promotion. The
           test is exact: a slack promotion of an S_x just above V(now)
           could leave the eligible set non-empty where [select] would
           have found it empty and taken max(V, S_x) as its threshold,
           moving the post-dated V. An empty [w] reads NaN: no swap. *)
        if Ih.min_key_unsafe e = slot && Ih.min_prio_unsafe w <= linear_v k node ~now
        then begin
          let x = Ih.min_key_unsafe w in
          Ih.replace_min w ~key:slot ~prio:start;
          Ih.replace_min e ~key:x ~prio:k.s_finish.(k.sbase.(node) + x)
        end
        else begin
          Ih.remove e slot;
          Ih.add w ~key:slot ~prio:start
        end
      end
    else begin
      Ih.remove k.waiting.(node) slot;
      place k node slot
    end
  end;
  match k.observers.(node) with
  | None -> ()
  | Some o ->
    o.Sched_intf.on_requeue ~now ~vtime:(linear_v k node ~now) ~session:slot ~head_bits

let[@inline] set_idle k node slot ~now =
  Bytes.set k.s_state (k.sbase.(node) + slot) st_idle;
  k.backlogged_count.(node) <- k.backlogged_count.(node) - 1;
  unplace k node slot;
  match k.observers.(node) with
  | None -> ()
  | Some o -> o.Sched_intf.on_idle ~now ~vtime:(linear_v k node ~now) ~session:slot

let remove k node slot =
  let i = k.sbase.(node) + slot in
  if Bytes.get k.s_state i <> st_idle then begin
    unplace k node slot;
    Bytes.set k.s_state i st_idle;
    k.backlogged_count.(node) <- k.backlogged_count.(node) - 1
  end

let[@inline] set_stamps k node slot ~start ~finish =
  let i = k.sbase.(node) + slot in
  k.s_start.(i) <- start;
  k.s_finish.(i) <- finish;
  k.s_head.(i) <- (finish -. start) *. k.s_rate.(i)

(* F = 0, so the first backlog stamps S = max(0, V) = V: a brand-new
   session. *)
let reset_slot k node slot ~rate =
  let i = k.sbase.(node) + slot in
  k.s_rate.(i) <- rate;
  k.s_start.(i) <- 0.0;
  k.s_finish.(i) <- 0.0;
  k.s_head.(i) <- 0.0;
  Bytes.set k.s_state i st_idle

(* RESTART-NODE lines 12-13: post-date V and its timestamp to the
   completion of the packet just committed. *)
let[@inline] commit k node slot ~now ~threshold =
  let service = k.s_head.(k.sbase.(node) + slot) /. k.rate.(node) in
  k.v.(node) <- threshold +. service;
  k.v_time.(node) <- now +. service;
  match k.observers.(node) with
  | None -> slot
  | Some o ->
    o.Sched_intf.on_select ~now ~vtime:k.v.(node) ~session:slot;
    slot

(* [select] on a scan node, the same eq. 27 steps as the heap path over
   the node's arena slice. The first pass finds the lowest (F_i, slot)
   among eligible slots and the least S_i among waiting ones. The second,
   run only when that least S_i is within slack of the threshold,
   promotes every waiting slot that is (exactly the set the heap path
   pops) and folds it into the pick. (F_i, then slot) is [Ih]'s (prio,
   key) order, so both paths select the same slot. Out of line (a loop),
   so V(now) comes in and the threshold goes out through
   [handoff.(node)]: a float argument or result would box. *)
let scan_select k node =
  let st = k.s_state and s_start = k.s_start and s_finish = k.s_finish in
  let first = k.sbase.(node) in
  let last = first + k.scan.(node) - 1 in
  let best = ref (-1) and best_f = ref 0.0 in
  let n_waiting = ref 0 and min_s = ref 0.0 in
  for i = first to last do
    let b = Bytes.unsafe_get st i in
    if b = st_eligible then begin
      let f = Array.unsafe_get s_finish i in
      if !best < 0 || f < !best_f then begin
        best := i;
        best_f := f
      end
    end
    else if b = st_waiting then begin
      let s = Array.unsafe_get s_start i in
      if !n_waiting = 0 || s < !min_s then min_s := s;
      incr n_waiting
    end
  done;
  let lin = k.handoff.(node) in
  let threshold = if !best < 0 && !n_waiting > 0 then fmax lin !min_s else lin in
  if !n_waiting > 0 && Float_cmp.le_with_slack !min_s threshold then
    for i = first to last do
      if
        Bytes.unsafe_get st i = st_waiting
        && Float_cmp.le_with_slack (Array.unsafe_get s_start i) threshold
      then begin
        Bytes.unsafe_set st i st_eligible;
        let f = Array.unsafe_get s_finish i in
        if !best < 0 || f < !best_f || (f = !best_f && i < !best) then begin
          best := i;
          best_f := f
        end
      end
    done;
  k.handoff.(node) <- threshold;
  if !best < 0 then -1 else !best - first

let[@inline] select k node ~now =
  if k.backlogged_count.(node) = 0 then -1
  else begin
    (* eq. 27: threshold = max(V(t)+τ, min S); when the eligible set is
       non-empty some S is already <= V, so the max is the linear term. *)
    let lin = linear_v k node ~now in
    if k.scan.(node) > 0 then begin
      k.handoff.(node) <- lin;
      let slot = scan_select k node in
      if slot >= 0 then commit k node slot ~now ~threshold:k.handoff.(node) else slot
    end
    else begin
      let e = k.eligible.(node) and w = k.waiting.(node) in
      let threshold =
        if Ih.is_empty e && not (Ih.is_empty w) then fmax lin (Ih.min_prio_unsafe w)
        else lin
      in
      (* promote every waiting session with S <= threshold *)
      let base = k.sbase.(node) in
      let continue = ref true in
      while !continue && not (Ih.is_empty w) do
        let start = Ih.min_prio_unsafe w in
        if Float_cmp.le_with_slack start threshold then begin
          let slot = Ih.min_key_unsafe w in
          Ih.drop_min w;
          Ih.add e ~key:slot ~prio:k.s_finish.(base + slot)
        end
        else continue := false
      done;
      (* SEFF; never empty here, since threshold >= min S *)
      let slot = Ih.min_key_unsafe e in
      if slot >= 0 then commit k node slot ~now ~threshold else slot
    end
  end
