(* Where a result came from: enough to tell two runs' builds and hosts
   apart when comparing them. *)

let first_line path =
  try In_channel.with_open_text path In_channel.input_line with Sys_error _ -> None

(* Read from .git directly, without running git: a source checkout that
   is not a repository reports "unknown". *)
let git_rev () =
  match first_line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match first_line (Filename.concat ".git" ref_) with
    | Some rev -> rev
    | None -> (
      let packed =
        try In_channel.with_open_text ".git/packed-refs" In_channel.input_all
        with Sys_error _ -> ""
      in
      let suffix = " " ^ ref_ in
      match
        List.find_opt (String.ends_with ~suffix) (String.split_on_char '\n' packed)
      with
      | Some line -> String.sub line 0 (String.index line ' ')
      | None -> "unknown"))
  | Some rev -> rev
  | None -> "unknown"

let timestamp () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday
    t.tm_hour t.tm_min t.tm_sec

let json ~seed ~workload ~trace ~quick ~seconds =
  Printf.sprintf
    {|{"rev":"%s","ocaml":"%s","profile":"%s","nproc":%d,"timestamp":"%s","seed":%d,"workload":"%s","trace":%d,"quick":%b,"seconds":%g}|}
    (git_rev ()) Sys.ocaml_version Build_info.profile
    (Domain.recommended_domain_count ())
    (timestamp ()) seed workload trace quick seconds
