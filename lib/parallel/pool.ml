(* Work pool over Domains with a chunked atomic task cursor.

   Determinism comes from indexing, not scheduling: workers race only for
   *which* index they compute, never for where a result goes — slot [i] of
   [results] is written by exactly one domain and read by the caller after
   the round completes (the joins are the happens-before edge), so the
   returned array is the same for any worker count or interleaving.

   Chunked claiming ([fetch_and_add next chunk]) is static chunking with a
   work-stealing index: contiguous runs of indices keep per-task atomic
   traffic low, while idle workers keep pulling chunks so a grid whose
   cells vary 100x in cost (e.g. wfi at N=4 vs N=128) still balances. *)

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

(* Progress is observability, not synchronization: the round's mutex
   serializes the Logs call (reporters are not domain-safe) and rate-limits
   it. Losing the race to report is fine — the final task always logs, so a
   watcher sees the sweep finish. *)
type progress = {
  completed : int Atomic.t;
  lock : Mutex.t;
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

(* ---- one round of tasks, run by every domain of a map ---- *)

type round = {
  tasks : int;
  chunk : int;
  next : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  progress : progress;
  run1 : int -> unit; (* compute task i into its slot; may raise *)
}

let make_round ~tasks ~executors ~run1 =
  {
    tasks;
    (* ~4 chunks per executor: coarse enough that the cursor is cold, fine
       enough that one expensive tail chunk can still be stolen around *)
    chunk = max 1 (tasks / (executors * 4));
    next = Atomic.make 0;
    failure = Atomic.make None;
    progress = { completed = Atomic.make 0; lock = Mutex.create (); last_emit = 0.0 };
    run1;
  }

(* Claim and run chunks until the cursor is exhausted or a failure is
   posted. Task exceptions are captured into [failure] (first one wins),
   never raised — so this function itself cannot raise, which [map]'s
   joins rely on. *)
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

let reraise_failure r =
  match Atomic.get r.failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---- fork-join map ---- *)

(* The caller and [min jobs tasks - 1] spawned domains all run the one
   round; the joins are the happens-before edge for the result slots.
   [execute_round] cannot raise, so a failed spawn still leaves the
   domains already spawned to finish the round before it propagates. *)
let map t ~tasks ~f =
  if tasks < 0 then invalid_arg "Pool.map: negative task count";
  if tasks = 0 then [||]
  else begin
    let workers = min t.jobs tasks in
    let results = Array.make tasks None in
    let r =
      make_round ~tasks ~executors:workers ~run1:(fun i -> results.(i) <- Some (f i))
    in
    let domains = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !domains)
      (fun () ->
        for _ = 2 to workers do
          domains := Domain.spawn (fun () -> execute_round r) :: !domains
        done;
        execute_round r);
    reraise_failure r;
    Array.map (function Some v -> v | None -> assert false (* every index ran *)) results
  end

let map_reduce t ~tasks ~f ~merge ~init =
  Array.fold_left merge init (map t ~tasks ~f)

let map_list t ~f xs =
  let arr = Array.of_list xs in
  Array.to_list (map t ~tasks:(Array.length arr) ~f:(fun i -> f arr.(i)))
