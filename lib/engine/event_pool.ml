(* Paged, packed storage for pending events (see Event_set). The pool
   owns the event *fields* — fire time, FIFO sequence, action closure,
   lifecycle state, cancellation generation — while a pending set owns
   only an ordering over slot indices, threaded through the one link
   word each slot carries. Keeping the fields here means a set compares
   two events with a few array loads and no per-event record ever
   exists; keeping the freelist here means slot reuse (and therefore
   generation bumping, which is what makes stale cancels safe) has a
   single owner, which also lets the tests run the calendar and its
   reference heap over one pool.

   Layout: slot s lives at offset [o = s land page_mask] of page
   [s lsr page_bits], in three page arrays: a float page of fire times
   (8 B), an int page of three blocks — seqs, metas ((gen lsl 2) lor
   state) and links, each [block] words long (24 B) — and an action page
   (8 B): 40 B a slot. The int page is blocked, not interleaved, because
   a pending set's walks read one of the three words of many slots: the
   calendar's chain walk reads links, the heap's compares read times and
   seqs. Blocked, the links of 10^5 slots take 0.8 MB and stay in cache
   where interleaved ones took 2.4 MB and did not: the calendar ÷ heap
   hold rate at 64k cancel-heavy timers read ~1.4× interleaved and ~2.0×
   blocked, as it did when every field had its own array.

   Page 0 doubles from its initial size up to a full page, moving its
   three blocks apart; from then on growth appends a full page and copies
   no event, only the three page directories double. So [block] is page
   0's length while page 0 is the only page, and [page_size] once there
   are more. *)

type t = {
  mutable times : float array array;
  mutable ints : int array array; (* seqs; metas; links *)
  mutable actions : (unit -> unit) array array;
  mutable block : int; (* slots per page: the int page's block length *)
  mutable capacity : int;
  mutable fresh : int; (* slots >= fresh were never taken *)
  mutable free_head : int; (* returned slots, linked; -1 ends the list *)
}

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let no_action = ignore

(* Generations live in the low 31 bits of a packed event id (see
   Simulator.pack); the mask is shared so pool and packer agree. *)
let gen_mask = 0x7FFFFFFF
let st_free = 0
let st_live = 1
let st_cancelled = 2

let create ?(capacity = 16) () =
  let cap = max 2 capacity in
  let pages, block =
    if cap <= page_size then (1, cap) else ((cap + page_mask) / page_size, page_size)
  in
  {
    times = Array.init pages (fun _ -> Array.make block 0.0);
    ints = Array.init pages (fun _ -> Array.make (3 * block) 0);
    actions = Array.init pages (fun _ -> Array.make block no_action);
    block;
    capacity = pages * block;
    fresh = 0;
    free_head = -1;
  }

let capacity t = t.capacity
let times t = t.times

(* The readers skip bounds checks: every slot a pending set holds was
   handed out by [alloc], so it is below [capacity] and inside its page
   (the one slot a caller names, a cancelled id, is checked against
   [capacity] by Simulator.cancel). A check per load cost ~8% on the
   simulator's hold model at 10^5 pending events. *)
let[@inline] time t s =
  Array.unsafe_get (Array.unsafe_get t.times (s lsr page_bits) : float array) (s land page_mask)

let[@inline] word t s k =
  Array.unsafe_get
    (Array.unsafe_get t.ints (s lsr page_bits) : int array)
    ((k * t.block) + (s land page_mask))

let[@inline] seq t s = word t s 0
let[@inline] meta t s = word t s 1
let[@inline] link t s = word t s 2

let[@inline] set_link t s v =
  Array.unsafe_set
    (Array.unsafe_get t.ints (s lsr page_bits) : int array)
    ((2 * t.block) + (s land page_mask))
    v

let[@inline] action t s =
  Array.unsafe_get (Array.unsafe_get t.actions (s lsr page_bits)) (s land page_mask)

let[@inline] gen t s = meta t s lsr 2
let[@inline] is_live t s = meta t s land 3 = st_live

let[@inline] fill t s ~at ~seq =
  let p = s lsr page_bits and o = s land page_mask in
  t.times.(p).(o) <- at;
  let ints = t.ints.(p) and m = t.block + o in
  ints.(o) <- seq;
  ints.(m) <- (ints.(m) land lnot 3) lor st_live

let[@inline] set_action t s action = t.actions.(s lsr page_bits).(s land page_mask) <- action

let cancel t s =
  let ints = t.ints.(s lsr page_bits) and m = t.block + (s land page_mask) in
  ints.(m) <- (ints.(m) land lnot 3) lor st_cancelled

let free t s =
  let p = s lsr page_bits and o = s land page_mask in
  let ints = t.ints.(p) and m = t.block + o in
  (* bump the generation (invalidating old ids); state = st_free *)
  ints.(m) <- ((((ints.(m) lsr 2) + 1) land gen_mask) lsl 2) lor st_free;
  ints.(m + t.block) <- t.free_head;
  t.actions.(p).(o) <- no_action; (* release the closure *)
  t.free_head <- s

let grow t =
  if t.capacity < page_size then begin
    (* page 0 is the only page and partial: double it, up to a full page *)
    let n = t.capacity in
    let n' = min page_size (2 * n) in
    let times = Array.make n' 0.0 and ints = Array.make (3 * n') 0 in
    let actions = Array.make n' no_action in
    Array.blit t.times.(0) 0 times 0 n;
    Array.blit t.actions.(0) 0 actions 0 n;
    for k = 0 to 2 do
      Array.blit t.ints.(0) (k * n) ints (k * n') n
    done;
    t.times.(0) <- times;
    t.ints.(0) <- ints;
    t.actions.(0) <- actions;
    t.block <- n';
    t.capacity <- n'
  end
  else begin
    let p = t.capacity lsr page_bits in
    if p = Array.length t.times then begin
      let double d empty =
        let d' = Array.make (2 * p) empty in
        Array.blit d 0 d' 0 p;
        d'
      in
      t.times <- double t.times [||];
      t.ints <- double t.ints [||];
      t.actions <- double t.actions [||]
    end;
    t.times.(p) <- Array.make page_size 0.0;
    t.ints.(p) <- Array.make (3 * page_size) 0;
    t.actions.(p) <- Array.make page_size no_action;
    t.capacity <- t.capacity + page_size
  end

let alloc t =
  let s = t.free_head in
  if s >= 0 then begin
    t.free_head <- link t s;
    s
  end
  else begin
    if t.fresh = t.capacity then grow t;
    let s = t.fresh in
    t.fresh <- s + 1;
    s
  end

(* (time, seq) strict order: the tie-break makes same-instant events fire
   in schedule order, which keeps runs deterministic. *)
let before t a b =
  let ta = time t a and tb = time t b in
  ta < tb || (ta = tb && seq t a < seq t b)
