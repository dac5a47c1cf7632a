(* The bench-suite registry: every suite is data (paths, guards, bounds)
   plus two measurement functions, and everything else — validation,
   baseline loading, provenance, verdicts, the `check` run — is written
   once here. *)

type profile = Local | Ci

let profile () = if Sys.getenv_opt "CI" = Some "true" then Ci else Local
let profile_name = function Local -> "local" | Ci -> "ci"

type bound = { local : float; ci : float }

let both v = { local = v; ci = v }
let bound_in p b = match p with Local -> b.local | Ci -> b.ci

(* Allocation is deterministic per packet (unlike wall clock), so the band
   only absorbs ring-growth amortisation; a leaked box per packet trips it
   on any host. *)
let words_tol = 0.10

type guard =
  | Floor of { path : string list; floor : bound }
  | Ratio of { path : string list; floor : bound }
  | Ceiling of { path : string list }
  | Scaling of { slack : bound }
  | Hash of { fresh : string list; baseline : string list }

type t = {
  name : string;
  title : string;
  out : string;
  report : quick:bool -> Json.t;
  required : string list list;
  probe : quick:bool -> Json.t;
  guards : guard list;
}

(* -- paths ----------------------------------------------------------------- *)

let rec find path json =
  match (path, json) with
  | [], Json.Null -> None
  | [], j -> Some j
  | _, Json.Arr (first :: _) -> find path first
  | k :: rest, j -> Option.bind (Json.member k j) (find rest)

let path_name = String.concat "."
let num path json = Option.bind (find path json) Json.to_float
let str path json = match find path json with Some (Json.Str s) -> Some s | _ -> None

let baseline_paths = function
  | Ceiling { path } -> [ path ]
  | Hash { baseline; _ } -> [ baseline ]
  | Floor _ | Ratio _ | Scaling _ -> []

let missing ?(baseline = false) t json =
  let paths =
    if baseline then t.required @ List.concat_map baseline_paths t.guards
    else t.required
  in
  List.filter_map (fun p -> if find p json = None then Some (path_name p) else None) paths

let quick_out t = Filename.remove_extension t.out ^ "_quick.json"

(* -- same-run A/B ------------------------------------------------------------ *)

(* Load drifts over seconds, so the two sides of a ratio are measured
   back to back, and the order flips every pair so that neither side
   always runs first. *)
let pairs ~num ~den () =
  let samples =
    List.init 5 (fun i ->
        if i mod 2 = 0 then
          let d = den () in
          (num (), d)
        else
          let x = num () in
          (x, den ()))
  in
  let arr f = Json.Arr (List.map (fun s -> Json.Num (f s)) samples) in
  Json.Obj [ ("num", arr fst); ("den", arr snd) ]

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The median of a {!pairs} object's per-pair ratios, with the ratios,
   or why there is none: every same-run verdict goes through here. *)
let same_run json =
  let samples k =
    Option.bind (Json.member k json) Json.to_list
    |> Option.map (List.filter_map Json.to_float)
  in
  match (samples "num", samples "den") with
  | Some num, Some den when num <> [] && List.compare_lengths num den = 0 ->
    if List.for_all (fun d -> d > 0.0 && Float.is_finite d) den
       && List.for_all Float.is_finite num
    then
      let rs = List.map2 ( /. ) num den in
      Ok (median rs, rs)
    else Error "zero or non-finite sample"
  | _ -> Error "num/den samples missing or unmatched"

let ratio json = Result.fold ~ok:fst ~error:(fun _ -> nan) (same_run json)

let show_pairs (m, rs) =
  Printf.sprintf "median %.3fx of %d pairs: %s" m (List.length rs)
    (String.concat " " (List.map (Printf.sprintf "%.3f") rs))

(* -- provenance ------------------------------------------------------------ *)

let first_line path =
  try In_channel.with_open_text path In_channel.input_line with Sys_error _ -> None

(* Read from .git directly, without running git. *)
let git_rev () =
  match first_line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match first_line (Filename.concat ".git" ref_) with
    | Some rev -> rev
    | None ->
      let packed =
        try In_channel.with_open_text ".git/packed-refs" In_channel.input_all
        with Sys_error _ -> ""
      in
      List.find_map
        (fun line ->
          if String.ends_with ~suffix:(" " ^ ref_) line then
            Some (String.sub line 0 (String.index line ' '))
          else None)
        (String.split_on_char '\n' packed)
      |> Option.value ~default:"unknown")
  | Some rev -> rev
  | None -> "unknown"

let provenance () =
  let tm = Unix.gmtime (Unix.time ()) in
  Json.Obj
    [
      ("rev", Json.Str (git_rev ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("profile", Json.Str Build_info.profile);
      ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ( "timestamp",
        Json.Str
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.tm_year + 1900)
             (tm.tm_mon + 1) tm.tm_mday tm.tm_hour tm.tm_min tm.tm_sec) );
    ]

(* -- run ------------------------------------------------------------------- *)

let section title = Printf.printf "\n================ %s ================\n%!" title

let run t ~quick ~out =
  section t.title;
  let json =
    match t.report ~quick with
    | Json.Obj fields -> Json.Obj (fields @ [ ("provenance", provenance ()) ])
    | j -> j
  in
  (match missing t json with
  | [] -> ()
  | m ->
    failwith (Printf.sprintf "%s: emitted report lacks %s" t.name (String.concat ", " m)));
  Json.to_file out json;
  Printf.printf "\nwrote %s\n%!" out;
  json

let load_baseline t path =
  match Json.of_file path with
  | exception Sys_error msg -> Error (msg ^ Printf.sprintf " (run `bench %s` first)" t.name)
  | exception Json.Parse_error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | json -> (
    match missing ~baseline:true t json with
    | [] -> Ok json
    | m -> Error (Printf.sprintf "%s lacks %s" path (String.concat ", " m)))

(* -- guards ---------------------------------------------------------------- *)

type verdict = { ok : bool; text : string }

let unreadable what path =
  { ok = false; text = Printf.sprintf "%s: %s value missing" (path_name path) what }

let judge p ~baseline ~fresh guard =
  match guard with
  | Floor { path; floor } -> (
    let floor = bound_in p floor in
    match num path fresh with
    | Some f ->
      {
        ok = f >= floor;
        text = Printf.sprintf "%-40s fresh %14.4g (floor %g)" (path_name path) f floor;
      }
    | None -> unreadable "fresh" path)
  | Ratio { path; floor } -> (
    let floor = bound_in p floor in
    match Option.map same_run (find path fresh) with
    | Some (Ok ((m, _) as r)) ->
      {
        ok = m >= floor;
        text = Printf.sprintf "%-40s %s (floor %g)" (path_name path) (show_pairs r) floor;
      }
    | Some (Error e) -> { ok = false; text = Printf.sprintf "%s: %s" (path_name path) e }
    | None -> unreadable "fresh" path)
  | Ceiling { path } -> (
    match (num path fresh, num path baseline) with
    | Some f, Some b ->
      let ceiling = b *. (1.0 +. words_tol) in
      {
        ok = f <= ceiling;
        text =
          Printf.sprintf "%-40s fresh %.3f words/pkt vs ceiling %.3f (baseline %.3f +%.0f%%)"
            (path_name path) f ceiling b (words_tol *. 100.0);
      }
    | None, _ -> unreadable "fresh" path
    | _ -> unreadable "baseline" path)
  | Hash { fresh = fp; baseline = bp } -> (
    match (str fp fresh, str bp baseline) with
    | Some f, Some b ->
      {
        ok = String.equal f b;
        text = Printf.sprintf "%-40s fresh %s vs baseline %s (exact)" (path_name fp) f b;
      }
    | None, _ -> unreadable "fresh" fp
    | _ -> unreadable "baseline" bp)
  | Scaling { slack } ->
    let slack = bound_in p slack in
    let rows =
      Option.value ~default:[] (Option.bind (Json.member "rows" fresh) Json.to_list)
    in
    let judged =
      List.map
        (fun row ->
          let label = Option.value ~default:"?" (str [ "label" ] row) in
          let floor = Option.value ~default:nan (num [ "expected" ] row) *. (1.0 -. slack) in
          match Option.map same_run (Json.member "pairs" row) with
          | Some (Ok ((m, _) as r)) ->
            ( m >= floor,
              Printf.sprintf "  %-24s floor %5.2fx %-3s %s" label floor
                (if m >= floor then "yes" else "NO")
                (show_pairs r) )
          | Some (Error e) -> (false, Printf.sprintf "  %-24s %s" label e)
          | None -> (false, Printf.sprintf "  %-24s pairs missing" label))
        rows
    in
    {
      ok = rows <> [] && List.for_all fst judged;
      text =
        String.concat "\n"
          (Printf.sprintf "scaling rows (floor = expected x (1 - %.2f))" slack
          :: List.map snd judged);
    }

let guard ?baseline t p =
  let path = Option.value baseline ~default:t.out in
  Result.map
    (fun baseline ->
      let fresh = t.probe ~quick:false in
      List.map (judge p ~baseline ~fresh) t.guards)
    (load_baseline t path)

let print_guard t p result =
  section
    (Printf.sprintf "%s-GUARD: %s vs %s (profile %s)"
       (String.uppercase_ascii t.name) t.title t.out (profile_name p));
  let ok =
    match result with
    | Error e ->
      Printf.printf "error: %s\n" e;
      false
    | Ok verdicts ->
      List.iter
        (fun v -> Printf.printf "%-4s %s\n" (if v.ok then "OK" else "FAIL") v.text)
        verdicts;
      List.for_all (fun v -> v.ok) verdicts
  in
  Printf.printf "%s-guard: %s\n%!" t.name (if ok then "OK" else "FAIL");
  ok

(* -- check ----------------------------------------------------------------- *)

let check suites =
  let p = profile () in
  Printf.printf "check: profile %s (bounds for %s)\n%!" (profile_name p)
    (match p with Ci -> "CI=true" | Local -> "a dedicated host; CI=true selects the CI set");
  let step name f =
    let ok =
      match f () with
      | ok -> ok
      | exception e ->
        Printf.printf "%s: %s\n%!" name (Printexc.to_string e);
        false
    in
    (name, ok)
  in
  let quick =
    List.map
      (fun t ->
        step (t.name ^ "-quick") (fun () ->
            ignore (run t ~quick:true ~out:(quick_out t));
            true))
      suites
  in
  let committed =
    List.map
      (fun t ->
        step ("committed " ^ t.out) (fun () ->
            match load_baseline t t.out with
            | Ok _ -> true
            | Error e -> failwith e))
      suites
  in
  let guards =
    List.map
      (fun t ->
        step (t.name ^ "-guard") (fun () -> print_guard t p (guard t p)))
      suites
  in
  let steps = quick @ committed @ guards in
  Printf.printf "\n================ check summary (profile %s) ================\n"
    (profile_name p);
  List.iter
    (fun (name, ok) -> Printf.printf "%-32s %s\n" name (if ok then "OK" else "FAIL"))
    steps;
  List.for_all snd steps
