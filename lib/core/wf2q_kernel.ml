open Sched
module Ih = Prioq.Indexed_heap4

(* Every field is a plain array indexed by node id, or by the arena index
   [sbase.(node) + slot] for per-(node, session) state, so floats stay
   unboxed: a mixed int/float record would box every stamp store. The
   arena fields are mutable only for [grow]; a hierarchy never grows, so
   its shards can write disjoint index regions from different Domains. *)
type t = {
  rate : float array; (* r_n: the node's server rate *)
  v : float array; (* V, post-dated to the last selection's completion *)
  v_time : float array; (* server time of that completion *)
  backlogged_count : int array;
  eligible : Ih.t array; (* S_i <= V, keyed by F_i *)
  waiting : Ih.t array; (* S_i >  V, keyed by S_i *)
  observers : Sched_intf.observer option array;
  sbase : int array;
  mutable s_rate : float array; (* r_i *)
  mutable s_start : float array; (* S_i of the head packet *)
  mutable s_finish : float array; (* F_i of the head packet *)
  mutable s_head : float array; (* size of the head packet *)
  mutable s_backlogged : Bytes.t; (* '\001' when backlogged *)
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
  (* Nodes without slots (a hierarchy's leaves, or a one-node instance
     before its first [grow]) share one heap pair; only a node that then
     gains sessions ever touches it. *)
  let idle_e = Ih.create 1 and idle_w = Ih.create 1 in
  let heaps idle =
    Array.init n (fun node -> if slots.(node) = 0 then idle else Ih.create slots.(node))
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
    s_rate = Array.make arena 0.0;
    s_start = Array.make arena 0.0;
    s_finish = Array.make arena 0.0;
    s_head = Array.make arena 0.0;
    s_backlogged = Bytes.make arena '\000';
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
    let b = Bytes.make cap' '\000' in
    Bytes.blit k.s_backlogged 0 b 0 cap;
    k.s_backlogged <- b
  end

let[@inline] observer k node = k.observers.(node)
let set_observer k node o = k.observers.(node) <- o
let[@inline] backlogged_count k node = k.backlogged_count.(node)

let[@inline] is_backlogged k node slot =
  Bytes.get k.s_backlogged (k.sbase.(node) + slot) <> '\000'

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
  if Float_cmp.le_with_slack k.s_start.(i) k.v.(node) then
    Ih.add k.eligible.(node) ~key:slot ~prio:k.s_finish.(i)
  else Ih.add k.waiting.(node) ~key:slot ~prio:k.s_start.(i)

let[@inline] unplace k node slot =
  Ih.remove k.eligible.(node) slot;
  Ih.remove k.waiting.(node) slot

let[@inline] enqueue k node slot ~now ~head_bits =
  Bytes.set k.s_backlogged (k.sbase.(node) + slot) '\001';
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
  (* The requeued session usually sits in the eligible set (it was just
     selected from there); while it stays eligible an in-place increase-key
     replaces the remove+add pair. *)
  let e = k.eligible.(node) in
  if Ih.mem e slot then
    if Float_cmp.le_with_slack start k.v.(node) then Ih.update e ~key:slot ~prio:finish
    else begin
      Ih.remove e slot;
      Ih.add k.waiting.(node) ~key:slot ~prio:start
    end
  else begin
    Ih.remove k.waiting.(node) slot;
    place k node slot
  end;
  match k.observers.(node) with
  | None -> ()
  | Some o ->
    o.Sched_intf.on_requeue ~now ~vtime:(linear_v k node ~now) ~session:slot ~head_bits

let[@inline] set_idle k node slot ~now =
  Bytes.set k.s_backlogged (k.sbase.(node) + slot) '\000';
  k.backlogged_count.(node) <- k.backlogged_count.(node) - 1;
  unplace k node slot;
  match k.observers.(node) with
  | None -> ()
  | Some o -> o.Sched_intf.on_idle ~now ~vtime:(linear_v k node ~now) ~session:slot

let remove k node slot =
  let i = k.sbase.(node) + slot in
  if Bytes.get k.s_backlogged i <> '\000' then begin
    unplace k node slot;
    Bytes.set k.s_backlogged i '\000';
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
  Bytes.set k.s_backlogged i '\000'

let[@inline] select k node ~now =
  if k.backlogged_count.(node) = 0 then -1
  else begin
    (* eq. 27: threshold = max(V(t)+τ, min S); when the eligible set is
       non-empty some S is already <= V, so the max is the linear term. *)
    let lin = linear_v k node ~now in
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
    if slot >= 0 then begin
      let service = k.s_head.(base + slot) /. k.rate.(node) in
      (* RESTART-NODE lines 12-13: post-date V and its timestamp to the
         completion of the packet just committed. *)
      k.v.(node) <- threshold +. service;
      k.v_time.(node) <- now +. service;
      match k.observers.(node) with
      | None -> slot
      | Some o ->
        o.Sched_intf.on_select ~now ~vtime:k.v.(node) ~session:slot;
        slot
    end
    else slot
  end
