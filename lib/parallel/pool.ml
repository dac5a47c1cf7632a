(* Work pool over Domains with a chunked atomic task cursor.

   Determinism comes from indexing, not scheduling: workers race only for
   *which* index they compute, never for where a result goes — slot [i] of
   [results] is written by exactly one domain and read by the caller after
   the round completes (the await is the happens-before edge), so the
   returned array is the same for any worker count or interleaving.

   Chunked claiming ([fetch_and_add next chunk]) is static chunking with a
   work-stealing index: contiguous runs of indices keep per-task atomic
   traffic low, while idle workers keep pulling chunks so a grid whose
   cells vary 100x in cost (e.g. wfi at N=4 vs N=128) still balances.

   Two surfaces share that core. [Persistent] spawns its domains once and
   feeds them rounds of tasks (long-lived shard workers, repeated sweeps);
   the historical fork-join [map] is now a one-round persistent pool —
   same semantics as ever, spawn/join contained within the call. *)

let log_src = Logs.Src.create "hpfq.parallel" ~doc:"Sweep fan-out progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = { jobs : int }

let max_jobs = 1024 (* oversubscription guard: a typo like -j 1e6 is a bug *)

let default_jobs () =
  match Sys.getenv_opt "HPFQ_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 && j <= max_jobs -> j
    | _ ->
      Printf.eprintf
        "warning: HPFQ_JOBS=%S is not an integer in 1..%d; running sequential\n%!"
        s max_jobs;
      1)

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 || jobs > max_jobs then
    invalid_arg (Printf.sprintf "Pool.create: jobs must be in 1..%d, got %d" max_jobs jobs);
  { jobs }

let jobs t = t.jobs
let cores () = Domain.recommended_domain_count ()

(* Progress is observability, not synchronization: the pool's one mutex
   serializes the Logs call (reporters are not domain-safe) and rate-limits
   it. Losing the race to report is fine — the final task always logs, so a
   watcher sees the sweep finish. *)
type progress = {
  completed : int Atomic.t;
  lock : Mutex.t; (* owned by the pool, shared by its rounds *)
  mutable last_emit : float;
}

let info_enabled () =
  match Logs.Src.level log_src with
  | Some Logs.Info | Some Logs.Debug -> true
  | Some Logs.App | Some Logs.Error | Some Logs.Warning | None -> false

let report progress ~tasks =
  let done_ = 1 + Atomic.fetch_and_add progress.completed 1 in
  if info_enabled () then begin
    Mutex.lock progress.lock;
    let now = Unix.gettimeofday () in
    if done_ = tasks || now -. progress.last_emit >= 0.1 then begin
      progress.last_emit <- now;
      Log.info (fun m -> m "task %d/%d done" done_ tasks)
    end;
    Mutex.unlock progress.lock
  end

(* ---- one round of tasks, executable by any number of domains ---- *)

type round_core = {
  tasks : int;
  chunk : int;
  next : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  progress : progress;
  run1 : int -> unit; (* compute task i into its slot; may raise *)
}

let make_round ~tasks ~executors ~progress_lock ~run1 =
  {
    tasks;
    (* ~4 chunks per executor: coarse enough that the cursor is cold, fine
       enough that one expensive tail chunk can still be stolen around *)
    chunk = max 1 (tasks / (max 1 executors * 4));
    next = Atomic.make 0;
    failure = Atomic.make None;
    progress = { completed = Atomic.make 0; lock = progress_lock; last_emit = 0.0 };
    run1;
  }

(* Claim and run chunks until the cursor is exhausted or a failure is
   posted. Task exceptions are captured into [failure] (first one wins),
   never raised — so this function itself cannot raise, which the
   persistent workers' active-count bookkeeping relies on. *)
let execute_round r =
  let stop = ref false in
  while not !stop do
    let start = Atomic.fetch_and_add r.next r.chunk in
    if start >= r.tasks then stop := true
    else
      let fin = min r.tasks (start + r.chunk) in
      let i = ref start in
      while (not !stop) && !i < fin do
        if Atomic.get r.failure <> None then stop := true
        else begin
          (match r.run1 !i with
          | () -> report r.progress ~tasks:r.tasks
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set r.failure None (Some (e, bt)));
            stop := true);
          incr i
        end
      done
  done

let round_finished r =
  Atomic.get r.next >= r.tasks || Atomic.get r.failure <> None

let reraise_failure r =
  match Atomic.get r.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---- persistent pool: spawn once, submit many rounds ---- *)

module Persistent = struct
  type state = {
    m : Mutex.t;
    work : Condition.t; (* workers: a newer round was published, or close *)
    settled : Condition.t; (* awaiters/submitters: a worker left a round *)
    mutable current : (int * round_core) option; (* (generation, round) *)
    mutable generation : int;
    mutable active : int; (* worker domains currently inside a round *)
    mutable outstanding : bool; (* a round was submitted and not yet awaited *)
    mutable closed : bool;
    progress_lock : Mutex.t; (* every round's progress logging *)
  }

  type t = {
    state : state;
    mutable domains : unit Domain.t list; (* emptied by the (joined) shutdown *)
  }

  type 'a round = {
    core : round_core;
    results : 'a option array;
    pool : t;
  }

  (* Each worker remembers the generation it last executed, so republishing
     [current] can never re-run a finished round: a round is replaced only
     after [await] proved every index was claimed and every worker left. *)
  let worker_loop st =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock st.m;
      while
        (not st.closed)
        &&
        match st.current with
        | Some (gen, _) -> gen <= !seen
        | None -> true
      do
        Condition.wait st.work st.m
      done;
      if st.closed then begin
        Mutex.unlock st.m;
        running := false
      end
      else begin
        let gen, r =
          match st.current with Some g -> g | None -> assert false
        in
        st.active <- st.active + 1;
        Mutex.unlock st.m;
        execute_round r;
        (* cannot raise: task exceptions land in r.failure *)
        Mutex.lock st.m;
        st.active <- st.active - 1;
        Condition.broadcast st.settled;
        Mutex.unlock st.m;
        seen := gen
      end
    done

  let domains t = List.length t.domains

  (* A leaked pool must not wedge process exit (domains blocked in
     Condition.wait would keep the runtime from shutting down), so live
     pools sit in one registry drained by a single at_exit hook —
     registered once, not once per pool, since the fork-join [map] below
     creates a pool per call. *)
  let registry_lock = Mutex.create ()
  let registry : t list ref = ref []
  let registry_hooked = ref false

  let unregister t =
    Mutex.lock registry_lock;
    registry := List.filter (fun p -> p != t) !registry;
    Mutex.unlock registry_lock

  let shutdown t =
    let st = t.state in
    Mutex.lock st.m;
    let first = not st.closed in
    st.closed <- true;
    Condition.broadcast st.work;
    Mutex.unlock st.m;
    if first then begin
      List.iter Domain.join t.domains;
      t.domains <- [];
      unregister t
    end

  let register t =
    Mutex.lock registry_lock;
    registry := t :: !registry;
    let hook = not !registry_hooked in
    registry_hooked := true;
    Mutex.unlock registry_lock;
    if hook then
      at_exit (fun () ->
          Mutex.lock registry_lock;
          let live = !registry in
          Mutex.unlock registry_lock;
          List.iter shutdown live)

  let create ?(domains = cores () - 1) () =
    if domains < 0 || domains > max_jobs then
      invalid_arg
        (Printf.sprintf "Pool.Persistent.create: domains must be in 0..%d, got %d"
           max_jobs domains);
    let state =
      {
        m = Mutex.create ();
        work = Condition.create ();
        settled = Condition.create ();
        current = None;
        generation = 0;
        active = 0;
        outstanding = false;
        closed = false;
        progress_lock = Mutex.create ();
      }
    in
    let t = { state; domains = [] } in
    t.domains <- List.init domains (fun _ -> Domain.spawn (fun () -> worker_loop state));
    if domains > 0 then register t;
    t

  let submit t ~tasks ~f =
    if tasks < 0 then invalid_arg "Pool.Persistent.submit: negative task count";
    let st = t.state in
    let results = Array.make tasks None in
    let core =
      make_round ~tasks
        ~executors:(max 1 (List.length t.domains))
        ~progress_lock:st.progress_lock ~run1:(fun i -> results.(i) <- Some (f i))
    in
    Mutex.lock st.m;
    if st.closed then begin
      Mutex.unlock st.m;
      invalid_arg "Pool.Persistent.submit: pool is shut down"
    end;
    if st.outstanding then begin
      Mutex.unlock st.m;
      invalid_arg "Pool.Persistent.submit: previous round not yet awaited"
    end;
    if List.length t.domains = 0 && tasks > 0 then begin
      Mutex.unlock st.m;
      invalid_arg "Pool.Persistent.submit: pool has no worker domains (use map)"
    end;
    st.outstanding <- true;
    if tasks > 0 then begin
      st.generation <- st.generation + 1;
      st.current <- Some (st.generation, core);
      Condition.broadcast st.work
    end;
    Mutex.unlock st.m;
    { core; results; pool = t }

  let collect round =
    reraise_failure round.core;
    Array.map
      (function Some v -> v | None -> assert false (* every index was claimed *))
      round.results

  let await round =
    let st = round.pool.state in
    Mutex.lock st.m;
    while not (round_finished round.core && st.active = 0) do
      Condition.wait st.settled st.m
    done;
    st.outstanding <- false;
    Mutex.unlock st.m;
    collect round

  (* Caller participates: claim chunks alongside the worker domains, then
     await the stragglers. With zero domains this is exactly the
     sequential loop. *)
  let map t ~tasks ~f =
    if tasks < 0 then invalid_arg "Pool.Persistent.map: negative task count";
    if tasks = 0 then [||]
    else begin
      let st = t.state in
      let results = Array.make tasks None in
      let core =
        make_round ~tasks
          ~executors:(1 + List.length t.domains)
          ~progress_lock:st.progress_lock ~run1:(fun i -> results.(i) <- Some (f i))
      in
      Mutex.lock st.m;
      if st.closed then begin
        Mutex.unlock st.m;
        invalid_arg "Pool.Persistent.map: pool is shut down"
      end;
      if st.outstanding then begin
        Mutex.unlock st.m;
        invalid_arg "Pool.Persistent.map: previous round not yet awaited"
      end;
      st.outstanding <- true;
      st.generation <- st.generation + 1;
      st.current <- Some (st.generation, core);
      Condition.broadcast st.work;
      Mutex.unlock st.m;
      execute_round core;
      Mutex.lock st.m;
      while not (round_finished core && st.active = 0) do
        Condition.wait st.settled st.m
      done;
      st.outstanding <- false;
      Mutex.unlock st.m;
      reraise_failure core;
      Array.map (function Some v -> v | None -> assert false) results
    end
end

(* ---- fork-join facade (the historical API) ---- *)

let map t ~tasks ~f =
  if tasks < 0 then invalid_arg "Pool.map: negative task count";
  if tasks = 0 then [||]
  else begin
    let workers = min t.jobs tasks in
    let p = Persistent.create ~domains:(workers - 1) () in
    Fun.protect
      ~finally:(fun () -> Persistent.shutdown p)
      (fun () -> Persistent.map p ~tasks ~f)
  end

let map_reduce t ~tasks ~f ~merge ~init =
  Array.fold_left merge init (map t ~tasks ~f)

let map_list t ~f xs =
  let arr = Array.of_list xs in
  Array.to_list (map t ~tasks:(Array.length arr) ~f:(fun i -> f arr.(i)))
