(* Benchmark entry point.

     main.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1]
              [--quick] [--out DIR]

   For each workload (all four when --workload is omitted, one after
   another) the parent writes the generated inputs that live in files,
   then runs the measurement in fresh child processes of this same
   executable, one at a time, so heap peak and memory layout belong to
   that workload alone. It prints one "workload metric value unit" line
   per metric and, last, one JSON object:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
   --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
   ones. The exit code is 0 only when every correctness check passed. *)

open Hpfq_bench
module W = Workloads

let workload = ref None
let seed = ref 1
let seconds = ref 20.0
let trace = ref 0
let quick = ref false
let out = ref "benchmark/out"

(* set by the parent for its children only *)
let child = ref None
let input_file = ref ""
let pending = ref 0

let specs =
  Arg.align
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "W port_4k | tree_4k_d6 | imix_replay | subtree_overload (default: all four)" );
      ("--seed", Arg.Set_int seed, "S input seed (default 1; 2 is the validation seed)");
      ("--seconds", Arg.Set_float seconds, "T measuring time per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 0: end-to-end metrics; 1: per-layer metrics");
      ("--quick", Arg.Set quick, " small fixed-size smoke run (any build profile)");
      ("--out", Arg.Set_string out, "DIR span files and generated inputs (default benchmark/out)");
      ("--child", Arg.String (fun s -> child := Some s), "MODE internal");
      ("--input", Arg.Set_string input_file, "PATH internal");
      ("--pending", Arg.Set_int pending, "N internal");
    ]

let usage = "main.exe [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--quick]"

let fail_usage msg =
  prerr_endline msg;
  Arg.usage specs usage;
  exit 2

let provenance kind =
  Provenance.json ~seed:!seed ~workload:(W.name kind) ~trace:!trace ~quick:!quick
    ~seconds:!seconds

(* -- child side ------------------------------------------------------------ *)

let child_main mode kind =
  let print_metrics = List.iter (fun (n, v) -> Printf.printf "metric %s %.17g\n" n v) in
  match mode with
  | "probes" ->
    print_metrics (Probes.run kind ~quick:!quick ~pending:!pending ~decode_path:!input_file)
  | "measure" | "traced" | "workers0" ->
    let o =
      Runner.measure kind ~seed:!seed ~quick:!quick ~seconds:!seconds ~trace_file:!input_file
        ~traced:(mode = "traced")
        ~choice:(if mode = "workers0" then W.Workers 0 else W.Fast)
        ~expect_hash:(Pinned.expected ~workload:(W.name kind) ~seed:!seed ~quick:!quick)
        ~checks:(mode = "measure")
        ~spans_path:(Filename.concat !out (W.name kind ^ ".spans.jsonl"))
        ~provenance:(provenance kind)
    in
    print_metrics o.metrics;
    Printf.printf "attempted %d\nfailed %d\nhash %s\n" o.attempted o.failed (W.hash_hex o.hash)
  | _ -> fail_usage ("unknown child mode " ^ mode)

(* -- parent side ----------------------------------------------------------- *)

type child_result = {
  ok : bool;
  values : (string, float) Hashtbl.t;
  attempted : int;
  failed : int;
  hash : string;  (** round departure hash, "" from the probes *)
}

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let spawn ?(env = [||]) args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Array.append env (Unix.environment ()))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines = In_channel.input_all ic in
  close_in ic;
  let status = waitpid pid in
  let values = Hashtbl.create 32 and attempted = ref 0 and failed = ref 0 and hash = ref "" in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "metric"; n; v ] -> Hashtbl.replace values n (float_of_string v)
      | [ "attempted"; v ] -> attempted := int_of_string v
      | [ "failed"; v ] -> failed := int_of_string v
      | [ "hash"; h ] -> hash := h
      | _ -> if line <> "" then prerr_endline line)
    (String.split_on_char '\n' lines);
  let ok = status = Unix.WEXITED 0 in
  if not ok then prerr_endline ("benchmark child failed: " ^ String.concat " " args);
  (* a child that died counts everything it was to measure as failed *)
  let attempted = max 1 !attempted in
  { ok; values; attempted; failed = (if ok then !failed else attempted); hash = !hash }

let write_trace ~path events =
  Traffic.Trace.save_binary ~path events;
  path

type result = {
  metrics : (Metrics.t * float) list;
  depart_hash : string;
  r_attempted : int;
  r_failed : int;
  correct : bool;
}

let run_workload kind =
  let p = W.params kind ~quick:!quick in
  let base =
    Filename.concat !out
      (Printf.sprintf "%s.seed%d%s" (W.name kind) !seed (if !quick then ".quick" else ""))
  in
  let leaves = W.leaf_count kind p in
  let trace_file =
    match kind with
    | W.Imix_replay ->
      write_trace ~path:(base ^ ".trace") (W.imix_trace ~seed:!seed p)
    | _ -> ""
  in
  let args mode secs =
    [ "--child"; mode; "--workload"; W.name kind; "--seed"; string_of_int !seed; "--seconds";
      Printf.sprintf "%g" secs; "--trace"; string_of_int !trace; "--input"; trace_file;
      "--out"; !out ]
    @ if !quick then [ "--quick" ] else []
  in
  let children, measured, traced, probes, workers0 =
    if !trace = 0 then
      let m = spawn (args "measure" !seconds) in
      ([ m ], m, None, None, None)
    else begin
      let m = spawn (args "measure" (!seconds *. 0.5)) in
      let t =
        spawn ~env:[| "OCAML_RUNTIME_EVENTS_DIR=" ^ !out |] (args "traced" (!seconds *. 0.25))
      in
      let w =
        if kind = W.Subtree_overload then Some (spawn (args "workers0" (!seconds *. 0.25)))
        else None
      in
      (* the decode probe reads the workload's own trace, or a trace over
         the workload's leaves when it replays none *)
      let decode_file =
        if kind = W.Imix_replay then trace_file
        else
          write_trace ~path:(base ^ ".decode.trace")
            (Inputs.imix_trace ~seed:!seed ~fanouts:[ leaves ]
               ~leaves:(Array.to_list (W.leaf_names leaves))
               ~mean_pkts:(if !quick then 2.0 else 16.0))
      in
      let pending =
        Option.value (Hashtbl.find_opt m.values "engine.pending") ~default:1.0
      in
      let pr =
        spawn
          ([ "--child"; "probes"; "--workload"; W.name kind; "--input"; decode_file;
             "--pending"; string_of_int (int_of_float pending) ]
          @ if !quick then [ "--quick" ] else [])
      in
      if decode_file <> trace_file then Sys.remove decode_file;
      (List.filter_map Fun.id [ Some m; Some t; w; Some pr ], m, Some t, Some pr, w)
    end
  in
  if trace_file <> "" then Sys.remove trace_file;
  let attempted = List.fold_left (fun a c -> a + c.attempted) 0 children in
  let failed = List.fold_left (fun a c -> a + c.failed) 0 children in
  (* traced and untraced runs, at any worker count, schedule identically *)
  let failed =
    if List.for_all (fun c -> c.hash = "" || c.hash = measured.hash) children then failed
    else begin
      prerr_endline (W.name kind ^ ": the runs of one input departed differently");
      attempted
    end
  in
  let find (c : child_result option) n = Option.bind c (fun c -> Hashtbl.find_opt c.values n) in
  let pps = find (Some measured) "pkts_per_s" in
  let ratio a b = match (a, b) with Some a, Some b when b > 0.0 -> Some (a /. b) | _ -> None in
  let value (m : Metrics.t) =
    match m.source with
    | Metrics.Measured -> find (Some measured) m.name
    | Traced -> find traced m.name
    | Probe -> find probes m.name
    | Derived -> (
      match m.name with
      | "trace.overhead_frac" ->
        Option.map (fun r -> 1.0 -. r) (ratio (find traced "pkts_per_s") pps)
      | "shard.subtree.worker_speedup" ->
        if workers0 = None then Some 0.0 else ratio pps (find workers0 "pkts_per_s")
      | "failed_frac" -> Some (float_of_int failed /. float_of_int attempted)
      | _ -> None)
  in
  let wanted = if !trace = 0 then Metrics.end_to_end else Metrics.per_layer in
  let metrics, missing =
    List.partition_map
      (fun m ->
        match value m with
        | Some v when Float.is_finite v -> Left (m, v)
        | _ -> Right m.Metrics.name)
      wanted
  in
  List.iter (fun n -> prerr_endline (W.name kind ^ ": no value for " ^ n)) missing;
  {
    metrics;
    depart_hash = measured.hash;
    r_attempted = attempted;
    r_failed = failed;
    correct = failed = 0 && missing = [] && List.for_all (fun c -> c.ok) children;
  }

let json_result ~correct ~attempted ~failed metrics =
  let field (key, (m : Metrics.t), v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" key v m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map field metrics))

let parent_main kinds =
  if (not !quick) && Build_info.profile <> "release" then begin
    prerr_endline
      ("measured runs need a release build (this one is " ^ Build_info.profile
     ^ "); build with --profile release, or pass --quick");
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
  (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
  if not (Sys.file_exists !out && Sys.is_directory !out) then
    fail_usage ("cannot create output directory " ^ !out);
  let results =
    List.map
      (fun kind ->
        print_endline ("provenance " ^ provenance kind);
        let r = run_workload kind in
        List.iter
          (fun ((m : Metrics.t), v) ->
            Printf.printf "%s %s %.6g %s\n%!" (W.name kind) m.name v m.unit_)
          r.metrics;
        Printf.printf "%s depart_hash %s\n%!" (W.name kind) r.depart_hash;
        (kind, r))
      kinds
  in
  let keyed =
    List.concat_map
      (fun (kind, r) ->
        List.map
          (fun ((m : Metrics.t), v) ->
            ((if List.length kinds = 1 then m.name else W.name kind ^ "/" ^ m.name), m, v))
          r.metrics)
      results
  in
  let correct = List.for_all (fun (_, r) -> r.correct) results in
  let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
  print_endline
    (json_result ~correct ~attempted:(sum (fun r -> r.r_attempted))
       ~failed:(sum (fun r -> r.r_failed)) keyed);
  exit (if correct then 0 else 1)

let () =
  Arg.parse specs (fun a -> fail_usage ("unexpected argument " ^ a)) usage;
  let kinds =
    match !workload with
    | None -> W.all
    | Some name -> (
      match W.of_name name with
      | Some k -> [ k ]
      | None -> fail_usage ("unknown workload " ^ name))
  in
  match !child with
  | Some mode -> child_main mode (List.hd kinds)
  | None -> parent_main kinds
