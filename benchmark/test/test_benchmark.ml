(* Smoke tests of the benchmark, run by `dune runtest`:
   - a --quick run of every workload, traced and untraced, prints every
     metric BENCHMARK.json names, with its unit, and no failed packets;
   - the generated inputs are a pure function of the seed, and the
     seed's relabelling is a symmetry of the class tree;
   - a wrong pinned departure hash fails every packet of the run.
   At seed 1 the --quick runs also check the pinned --quick hashes. *)

open Hpfq_bench
module Json = Bench_kit.Json

let exe = "../main.exe"
let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    prerr_endline ("FAIL: " ^ what)
  end

let run args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  (status, lines)

let result lines =
  match List.rev lines with
  | last :: _ -> ( try Some (Json.of_string last) with Json.Parse_error _ -> None)
  | [] -> None

let str = function Some (Json.Str s) -> s | _ -> ""
let names section manifest = Option.bind (Json.member section manifest) Json.to_list

let quick_runs manifest =
  let workloads =
    List.map (fun w -> str (Json.member "name" w)) (Option.get (names "workloads" manifest))
  in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, section) ->
          let what = Printf.sprintf "%s --trace %d" workload trace in
          let status, lines =
            run
              [ "--quick"; "--workload"; workload; "--seed"; "1"; "--trace";
                string_of_int trace; "--out"; "out" ]
          in
          check (what ^ ": exit 0") (status = Unix.WEXITED 0);
          match result lines with
          | None -> check (what ^ ": last line is a JSON result") false
          | Some json ->
            check (what ^ ": correct")
              (Json.member "correct" json = Some (Json.Bool true));
            check (what ^ ": failed = 0") (Json.member "failed" json = Some (Json.Num 0.0));
            let metrics = Option.value (Json.member "metrics" json) ~default:Json.Null in
            let expected = Option.get (names section manifest) in
            (match metrics with
            | Json.Obj fields ->
              check (what ^ ": exactly the listed metrics")
                (List.length fields = List.length expected)
            | _ -> check (what ^ ": metrics object") false);
            List.iter
              (fun m ->
                let name = str (Json.member "name" m) in
                let unit_ = str (Json.member "unit" m) in
                match Json.member name metrics with
                | None -> check (what ^ ": prints " ^ name) false
                | Some v ->
                  check (what ^ ": unit of " ^ name)
                    (str (Json.member "unit" v) = unit_);
                  if name = "failed_frac" then
                    check (what ^ ": failed_frac = 0")
                      (Json.member "value" v = Some (Json.Num 0.0)))
              expected)
        [ (0, "end_to_end"); (1, "per_layer") ])
    workloads

let inputs_are_seeded () =
  let weights seed = Inputs.weights ~seed [ 8; 8; 8 ] in
  check "weights: same seed, same weights" (weights 7 = weights 7);
  check "weights: another seed, other weights" (weights 7 <> weights 8);
  let bursts seed = Inputs.bursts ~seed ~fanouts:[ 4; 16 ] ~count:1000 ~horizon:1e-3 in
  check "bursts: same seed, same bursts" (bursts 3 = bursts 3);
  check "bursts: another seed, other bursts" (bursts 3 <> bursts 4);
  let trace seed =
    Inputs.imix_trace ~seed ~fanouts:[ 4; 4 ] ~leaves:(Inputs.imix_leaves ~fanout:4)
      ~mean_pkts:8.0
  in
  check "trace: same seed, same trace" (trace 5 = trace 5);
  check "trace: another seed, other trace" (trace 5 <> trace 6)

(* A seed's symmetry maps the tree onto itself: a permutation that keeps
   every subtree's leaves together. *)
let symmetry_keeps_subtrees () =
  let image = Inputs.symmetry (Inputs.stream ~seed:9 ~salt:0) [ 3; 4; 5 ] in
  let sorted = Array.copy image in
  Array.sort compare sorted;
  check "symmetry: a permutation" (sorted = Array.init 60 Fun.id);
  check "symmetry: keeps subtrees"
    (List.for_all
       (fun size ->
         List.for_all
           (fun i -> image.(i) / size = image.(i - (i mod size)) / size)
           (List.init 60 Fun.id))
       [ 5; 20 ])

(* A run whose departure hash differs from the pinned one counts every
   packet it offered as failed, which makes the command exit non-zero. *)
let wrong_hash_fails () =
  let o =
    Runner.measure Workloads.Port_4k ~seed:1 ~quick:true ~seconds:0.0 ~trace_file:""
      ~traced:false ~choice:Workloads.Fast ~expect_hash:(Some 0) ~checks:false ~spans_path:""
      ~provenance:""
  in
  check "wrong pinned hash: packets attempted" (o.attempted > 0);
  check "wrong pinned hash: every packet failed" (o.failed = o.attempted)

let () =
  quick_runs (Json.of_file "../../BENCHMARK.json");
  inputs_are_seeded ();
  symmetry_keeps_subtrees ();
  wrong_hash_fails ();
  if !failures > 0 then exit 1
