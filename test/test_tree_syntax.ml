(* Tree-config syntax: parsing, rendering, roundtrips, error reporting. *)

module TS = Hpfq.Tree_syntax
module CT = Hpfq.Class_tree

let sample_text =
  "link 44.44M {\n\
  \  N-2 22.22M {\n\
  \    N-1 11.11M { RT-1 9M [512K]; BE-1 2.11M };\n\
  \    CS-1 1.111M # per-user train source\n\
  \  };\n\
  \  PS-1 2.222M\n\
   }"

let test_parse_sample () =
  match TS.parse sample_text with
  | Error e -> Alcotest.fail e
  | Ok tree ->
    Alcotest.(check string) "root name" "link" (CT.name tree);
    Alcotest.(check (float 1.0)) "root rate" 44.44e6 (CT.rate tree);
    Alcotest.(check int) "node count" 7 (CT.count_nodes tree);
    (match CT.find_path tree "RT-1" with
    | Some path ->
      Alcotest.(check (list string)) "path" [ "link"; "N-2"; "N-1"; "RT-1" ]
        (List.map CT.name path);
      let rt = List.nth path 3 in
      Alcotest.(check (float 1.0)) "RT-1 rate" 9.0e6 (CT.rate rt);
      (match rt with
      | CT.Leaf { queue_capacity_bits = Some cap; _ } ->
        Alcotest.(check (float 1.0)) "queue cap" 512.0e3 cap
      | _ -> Alcotest.fail "RT-1 should be a capped leaf")
    | None -> Alcotest.fail "RT-1 missing")

let test_rate_suffixes () =
  match TS.parse "r 2G { a 1.5G; b 500M { c 250M; d 250000K } }" with
  | Error e -> Alcotest.fail e
  | Ok tree ->
    Alcotest.(check (float 1.0)) "G suffix" 2.0e9 (CT.rate tree);
    Alcotest.(check (list (pair string (float 1.0)))) "leaves"
      [ ("a", 1.5e9); ("c", 250.0e6); ("d", 250.0e6) ]
      (CT.leaves tree)

let test_roundtrip () =
  let tree = Result.get_ok (TS.parse sample_text) in
  let reparsed = Result.get_ok (TS.parse (TS.to_string tree)) in
  let rec equal a b =
    String.equal (CT.name a) (CT.name b)
    && Float.abs (CT.rate a -. CT.rate b) < 1e-6
    && List.length (CT.children a) = List.length (CT.children b)
    && List.for_all2 equal (CT.children a) (CT.children b)
  in
  Alcotest.(check bool) "parse . to_string = id" true (equal tree reparsed)

let test_roundtrip_paper_trees () =
  List.iter
    (fun tree ->
      let text = TS.to_string tree in
      match TS.parse text with
      | Ok reparsed ->
        Alcotest.(check int) "same node count" (CT.count_nodes tree)
          (CT.count_nodes reparsed)
      | Error e -> Alcotest.fail e)
    [ Experiments.Paper_hierarchies.fig3; Experiments.Paper_hierarchies.fig8 ]

let expect_error name text =
  match TS.parse text with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (name ^ ": accepted")

let test_errors () =
  expect_error "missing rate" "link { a 1 }";
  expect_error "unterminated brace" "link 1 { a 0.5";
  expect_error "trailing garbage" "link 1 { a 1 } extra 2";
  expect_error "overcommitted (validation)" "link 1 { a 0.7; b 0.7 }";
  expect_error "cap on interior" "link 1 [5] { a 1 }";
  expect_error "bad char" "link 1 { a@b 1 }";
  expect_error "empty" "";
  expect_error "missing semicolon" "link 1 { a 0.5 b 0.5 }";
  (* 400 digits overflow to inf, and every check below compares with inf *)
  let nines = String.make 400 '9' in
  let text = Printf.sprintf "root %s { a %s; b 1 }" nines nines in
  Alcotest.(check (result reject string)) "non-finite rates named"
    (Error "invalid tree: node \"root\" has non-finite rate inf; node \"a\" has non-finite rate inf")
    (TS.parse text);
  expect_error "non-finite queue capacity" (Printf.sprintf "root 1 { a 1 [%s] }" nines)

(* [parse] answers Ok or Error on any input: it never raises and never
   hangs (the loops below finish). *)
let parse_total text =
  match TS.parse text with
  | Ok _ | Error _ -> ()
  | exception e -> Alcotest.failf "parse %S raised %s" text (Printexc.to_string e)

let test_fuzz () =
  let rng = Random.State.make [| 0x7ee; 5 |] in
  let byte () = Char.chr (Random.State.int rng 256) in
  for _ = 1 to 2000 do
    parse_total (String.init (Random.State.int rng 80) (fun _ -> byte ()))
  done;
  List.iter
    (fun tree ->
      let text = TS.to_string tree in
      for cut = 0 to String.length text do
        parse_total (String.sub text 0 cut)
      done;
      (* 1-3 byte edits, each an overwrite, a deletion or an insertion *)
      for _ = 1 to 2000 do
        let s = ref text in
        for _ = 1 to 1 + Random.State.int rng 3 do
          let n = String.length !s in
          let i = Random.State.int rng n in
          let head = String.sub !s 0 i and tail k = String.sub !s k (n - k) in
          s :=
            match Random.State.int rng 3 with
            | 0 -> head ^ String.make 1 (byte ()) ^ tail (i + 1)
            | 1 -> head ^ tail (i + 1)
            | _ -> head ^ String.make 1 (byte ()) ^ tail i
        done;
        parse_total !s
      done)
    [ Experiments.Paper_hierarchies.fig3; Experiments.Paper_hierarchies.fig8 ]

let test_parse_file () =
  let path = Filename.temp_file "hpfq_tree" ".cfg" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc sample_text);
  (match TS.parse_file path with
  | Ok tree -> Alcotest.(check string) "from file" "link" (CT.name tree)
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  match TS.parse_file "/nonexistent/hpfq.cfg" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let test_parsed_tree_runs () =
  (* a parsed tree drives a real server *)
  let tree = Result.get_ok (TS.parse "link 10M { gold 6M; silver 4M }") in
  let sim = Engine.Simulator.create () in
  let h =
    Hpfq.Hier.create ~sim ~spec:tree
      ~make_policy:(Hpfq.Hier.uniform Hpfq.Disciplines.wf2q_plus) ()
  in
  let gold = Hpfq.Hier.leaf_id h "gold" in
  ignore
    (Engine.Simulator.schedule sim ~at:0.0 (fun () ->
         ignore (Hpfq.Hier.inject h ~leaf:gold ~size_bits:1.0e4)));
  Engine.Simulator.run sim;
  Alcotest.(check (float 1e-6)) "served" 1.0e4 (Hpfq.Hier.departed_bits h ~node:"gold")

let () =
  Alcotest.run "tree_syntax"
    [
      ( "parser",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "rate suffixes" `Quick test_rate_suffixes;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "paper trees roundtrip" `Quick test_roundtrip_paper_trees;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "fuzz" `Quick test_fuzz;
          Alcotest.test_case "file IO" `Quick test_parse_file;
          Alcotest.test_case "parsed tree runs" `Quick test_parsed_tree_runs;
        ] );
    ]
