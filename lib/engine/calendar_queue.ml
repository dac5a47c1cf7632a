(* Calendar-queue pending set (R. Brown, CACM 1988), adapted to
   the slot pool and to lazy cancellation.

   Time is cut into buckets of [width] seconds; bucket [vb land mask]
   holds every pending event whose "virtual bucket" vb = floor(time /
   width), so the circular bucket array is a calendar: one lap of the
   array is a "year" of nbuckets * width seconds, and a bucket's chain
   mixes events of different years, kept sorted by (time, seq). Dequeue
   scans forward from the current position and takes a bucket's head only
   if it falls inside the year currently being swept (time < (vb + 1) *
   width); when a whole lap finds nothing in-year the next event is far
   away, and a direct search over the bucket heads (each chain is sorted,
   so the global minimum is some head) jumps the scan there. With the
   bucket count and width tracking the population, schedule and extract
   are amortized O(1) — against O(log n) for the slot heap — precisely on
   the near-future-timer distributions a discrete event simulator
   produces.

   Adaptations here:

   - No storage of its own per event: a bucket's chain runs through the
     pending slots' pool links (Event_pool's one link word, the freelist
     link while a slot is free), and a rebuild stages the live entries
     on one chain through the same links. Every path that frees a slot
     reads its link first, since [Event_pool.free] overwrites it.
   - Lazy resize keyed to live-event density: grow (double) when
     occupancy exceeds 2x the bucket count, shrink (halve) when it drops
     under half, both rebuilds re-estimating [width] as ~3x the *median*
     inter-event gap of a bounded sorted sample — median, not mean, so a
     single far-future outlier cannot inflate the width and collapse the
     near future into one bucket. Resizes free any cancelled entries they
     sweep past, so a rebuild doubles as compaction.
   - Lazy cancellation, same protocol as the slot heap: cancel flips pool
     state in O(1) and entries are unlinked + freed when the dequeue scan
     meets them, or wholesale in [compact] (triggered by the simulator
     when cancelled entries outnumber live ones), bounding memory under
     cancel churn.
   - A one-slot found cache making peek-then-pop O(1) (the simulator's
     [run ~until] peeks every event before firing it); any [add]
     invalidates it since a new event may precede the cached minimum.
   - Float safety: the virtual bucket of an event is computed once as
     [int_of_float (time /. width)] and corrected upward so the year
     check [time < (vb + 1) *. width] holds by construction; the
     correction is monotone in time, so bucket order never inverts. The
     quotient is clamped against int overflow for absurd time/width
     ratios; a clamped far-future event simply waits for direct search
     (the found cache keeps that terminating), and the width estimate's
     relative floor keeps the quotient small for every sane workload. *)

type t = {
  pool : Event_pool.t; (* a pending slot's pool link is its chain successor *)
  mutable buckets : int array; (* bucket -> head slot, -1 empty *)
  mutable nbuckets : int; (* power of two *)
  mutable mask : int;
  mutable width : float; (* seconds per bucket *)
  mutable pos_vb : int; (* virtual bucket the dequeue scan stands on *)
  last_time : float array;
      (* 1 element: last popped time, a lower bound on all entries. A flat
         float array, not a mutable field — float fields of mixed records
         box on every store, and this is written once per pop *)
  mutable size : int; (* entries in buckets, incl. cancelled *)
  mutable found : int; (* cached result of the last search, -1 invalid *)
  mutable found_bucket : int; (* bucket [found] heads *)
  mutable resizes : int;
  sample : float array; (* width estimation: sorted sample times *)
  gaps : float array; (* width estimation: sample gaps *)
}

let min_buckets = 16
let sample_cap = 64
let vb_clamp = 4.0e15 (* floats count integers exactly to 2^53 ~ 9e15 *)

let create pool =
  {
    pool;
    buckets = Array.make min_buckets (-1);
    nbuckets = min_buckets;
    mask = min_buckets - 1;
    width = 1.0;
    pos_vb = 0;
    last_time = [| 0.0 |];
    size = 0;
    found = -1;
    found_bucket = -1;
    resizes = 0;
    sample = Array.make sample_cap 0.0;
    gaps = Array.make sample_cap 0.0;
  }

let size t = t.size
let capacity t = t.nbuckets
let resizes t = t.resizes

(* Virtual bucket of [time]: floor(time / width), corrected so that
   time < (vb + 1) * width holds despite rounding (monotone in time). *)
let vb_of t time =
  let q = time /. t.width in
  let q = if q > vb_clamp then vb_clamp else q in
  let vb = int_of_float q in
  if time >= float_of_int (vb + 1) *. t.width then vb + 1 else vb

(* A slot's fire time, read off its page: [Event_pool.time] boxes the
   float wherever it is not inlined (the dev profile's -opaque). *)
let[@inline] time t slot =
  Array.unsafe_get
    (Array.unsafe_get (Event_pool.times t.pool) (slot lsr Event_pool.page_bits))
    (slot land Event_pool.page_mask)

let[@inline] next t slot = Event_pool.link t.pool slot
let[@inline] set_next t slot v = Event_pool.set_link t.pool slot v

(* Raw sorted insert, no resize trigger (rebuild re-inserts through it).
   [vb_of] is open-coded: calling it would box [time] at the argument
   boundary, and this is the per-schedule hot path. *)
let insert t slot =
  let time = time t slot in
  let q = time /. t.width in
  let q = if q > vb_clamp then vb_clamp else q in
  let vb = int_of_float q in
  let vb = if time >= float_of_int (vb + 1) *. t.width then vb + 1 else vb in
  (* rewind: [run ~until] peeks may have advanced the scan past [now] *)
  if vb < t.pos_vb then t.pos_vb <- vb;
  let b = vb land t.mask in
  let head = t.buckets.(b) in
  if head < 0 || Event_pool.before t.pool slot head then begin
    set_next t slot head;
    t.buckets.(b) <- slot
  end
  else begin
    let prev = ref head in
    let moving = ref true in
    while !moving do
      let nx = next t !prev in
      if nx >= 0 && Event_pool.before t.pool nx slot then prev := nx
      else moving := false
    done;
    set_next t slot (next t !prev);
    set_next t !prev slot
  end;
  t.size <- t.size + 1

(* ~3x the median inter-event gap, scaled from a sorted sample of at most
   [sample_cap] of the [live] slots chained from [first]: entries 0,
   stride, 2 stride, ... of the chain. *)
let estimate_width t first live =
  if live < 2 then t.width
  else begin
    let k = min live sample_cap in
    let stride = live / k in
    let s = ref first in
    for i = 0 to k - 1 do
      t.sample.(i) <- time t !s;
      if i < k - 1 then
        for _ = 1 to stride do
          s := next t !s
        done
    done;
    for i = 1 to k - 1 do
      (* insertion sort: k <= 64, allocation-free *)
      let v = t.sample.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && t.sample.(!j) > v do
        t.sample.(!j + 1) <- t.sample.(!j);
        decr j
      done;
      t.sample.(!j + 1) <- v
    done;
    for i = 0 to k - 2 do
      t.gaps.(i) <- t.sample.(i + 1) -. t.sample.(i)
    done;
    for i = 1 to k - 2 do
      let v = t.gaps.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && t.gaps.(!j) > v do
        t.gaps.(!j + 1) <- t.gaps.(!j);
        decr j
      done;
      t.gaps.(!j + 1) <- v
    done;
    (* a size-k sample of a size-[live] population understates gaps by
       ~live/k, so scale back up; fall back to the mean when ties push
       the median to zero, and keep the old width when every sampled
       event coincides *)
    let scale = 3.0 *. float_of_int k /. float_of_int live in
    let median = t.gaps.((k - 2) / 2) in
    let est =
      if median > 0.0 then median *. scale
      else begin
        let mean = (t.sample.(k - 1) -. t.sample.(0)) /. float_of_int (k - 1) in
        if mean > 0.0 then mean *. scale else t.width
      end
    in
    (* relative floor: keeps time / width (the virtual bucket) far away
       from integer overflow for any event near the sampled magnitudes *)
    Float.max est (Float.max 1e-300 (Float.abs t.sample.(k - 1) *. 1e-12))
  end

(* Sweep everything out, free cancelled entries, re-estimate the width,
   rebucket the live ones under [nbuckets'] buckets. The live entries are
   staged on one chain, in bucket then chain order, through their own
   links. *)
let rebuild t nbuckets' =
  let first = ref (-1) and last = ref (-1) and live = ref 0 in
  for b = 0 to t.nbuckets - 1 do
    let s = ref t.buckets.(b) in
    while !s >= 0 do
      let nx = next t !s in
      if Event_pool.is_live t.pool !s then begin
        if !last < 0 then first := !s else set_next t !last !s;
        last := !s;
        incr live
      end
      else Event_pool.free t.pool !s;
      s := nx
    done
  done;
  if !last >= 0 then set_next t !last (-1);
  t.width <- estimate_width t !first !live;
  if nbuckets' <> t.nbuckets then begin
    t.buckets <- Array.make nbuckets' (-1);
    t.nbuckets <- nbuckets';
    t.mask <- nbuckets' - 1
  end
  else Array.fill t.buckets 0 t.nbuckets (-1);
  t.size <- 0;
  t.found <- -1;
  (* every entry's time is >= last_time, so this can only round down *)
  t.pos_vb <- vb_of t t.last_time.(0);
  t.resizes <- t.resizes + 1;
  let s = ref !first in
  while !s >= 0 do
    let nx = next t !s in
    insert t !s;
    s := nx
  done

let add t slot =
  t.found <- -1;
  insert t slot;
  if t.size > 2 * t.nbuckets then rebuild t (2 * t.nbuckets)

(* Global minimum: min over bucket heads (chains are sorted). Frees
   cancelled minima it uncovers so the result, if any, is live. *)
let direct_min t =
  let best = ref (-1) in
  let best_bucket = ref (-1) in
  let searching = ref true in
  while !searching do
    best := -1;
    for b = 0 to t.nbuckets - 1 do
      let h = t.buckets.(b) in
      if h >= 0 && (!best < 0 || Event_pool.before t.pool h !best) then begin
        best := h;
        best_bucket := b
      end
    done;
    if !best < 0 || Event_pool.is_live t.pool !best then searching := false
    else begin
      t.buckets.(!best_bucket) <- next t !best;
      t.size <- t.size - 1;
      Event_pool.free t.pool !best
    end
  done;
  (!best, !best_bucket)

let find_live t =
  if t.found >= 0 && Event_pool.is_live t.pool t.found then t.found
  else begin
    t.found <- -1;
    let result = ref (-2) in
    let scanned = ref 0 in
    while !result = -2 do
      if t.size = 0 then result := -1
      else begin
        let b = t.pos_vb land t.mask in
        let head = t.buckets.(b) in
        if
          head >= 0
          && time t head < float_of_int (t.pos_vb + 1) *. t.width
        then
          if Event_pool.is_live t.pool head then begin
            result := head;
            t.found_bucket <- b
          end
          else begin
            (* cancelled entry inside the current year: reclaim, re-check *)
            t.buckets.(b) <- next t head;
            t.size <- t.size - 1;
            Event_pool.free t.pool head
          end
        else begin
          t.pos_vb <- t.pos_vb + 1;
          incr scanned;
          if !scanned > t.nbuckets then begin
            (* a full lap in-year found nothing: jump to the global min *)
            let m, bm = direct_min t in
            if m < 0 then result := -1
            else begin
              result := m;
              t.found_bucket <- bm;
              let v = time t m in
              let vb = vb_of t v in
              (* resume the scan at the min's year when the mapping is
                 exact (it isn't for clamped far-future outliers) *)
              if v < float_of_int (vb + 1) *. t.width && vb land t.mask = bm
              then t.pos_vb <- vb
            end
          end
        end
      end
    done;
    if !result >= 0 then t.found <- !result;
    !result
  end

let peek_live = find_live

let pop_live t =
  let s = find_live t in
  if s >= 0 then begin
    (* the found slot always heads its bucket *)
    t.buckets.(t.found_bucket) <- next t s;
    t.size <- t.size - 1;
    t.last_time.(0) <- time t s;
    t.found <- -1;
    if t.nbuckets > min_buckets && t.size < t.nbuckets / 2 then begin
      (* shrink in one jump so a drained queue doesn't rebuild per pop *)
      let n' = ref t.nbuckets in
      while !n' > min_buckets && t.size < !n' / 2 do
        n' := !n' / 2
      done;
      rebuild t !n'
    end
  end;
  s

let compact t =
  for b = 0 to t.nbuckets - 1 do
    let rec skip s =
      if s >= 0 && not (Event_pool.is_live t.pool s) then begin
        let nx = next t s in
        Event_pool.free t.pool s;
        t.size <- t.size - 1;
        skip nx
      end
      else s
    in
    let head = skip t.buckets.(b) in
    t.buckets.(b) <- head;
    if head >= 0 then begin
      let prev = ref head in
      while next t !prev >= 0 do
        let nx = skip (next t !prev) in
        set_next t !prev nx;
        if nx >= 0 then prev := nx
      done
    end
  done;
  t.found <- -1
