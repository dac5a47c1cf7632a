(** One registry for every bench suite: how a suite runs, which report
    keys it promises, and which guards hold its committed baseline.

    A suite supplies two measurements — a [report] (the full grid, or a
    smoke-scale one with [~quick:true]) and a [probe] (the fresh numbers
    its guards read) — plus data: the report paths it must carry and its
    guards with their bounds. Validation, baseline loading, provenance,
    verdicts and the [check] run are written once, here.

    A path is a list of object keys; where it meets an array it descends
    into the array's first element, so [["rows"; "pkts_per_sec"]] names
    the first row's field. A path whose value is absent or [null] is
    missing. *)

(** Which bounds apply: [Ci] when the environment has [CI=true] (GitHub
    Actions sets it on every runner), [Local] otherwise. *)
type profile = Local | Ci

val profile : unit -> profile
val profile_name : profile -> string

type bound = { local : float; ci : float }
(** One bound, with its value in each profile. *)

val both : float -> bound

val words_tol : float
(** Band of every allocation ceiling: 0.10. *)

(** Each kind is judged by one piece of code, {!judge}. *)
type guard =
  | Relative of { path : string list; tol : bound }
      (** Fresh throughput at [path] is at least [1 - tol] times the
          baseline's. *)
  | Floor of { path : string list; floor : bound }
      (** Fresh value at [path] (an A/B ratio or an absolute rate) is at
          least [floor]. *)
  | Ceiling of { path : string list }
      (** Fresh minor words/packet at [path] is at most the baseline's
          times [1 + words_tol]. *)
  | Scaling of { slack : bound }
      (** Every fresh [rows] entry with ["enforced": true] has ["value"] at
          least ["expected"] times [1 - slack]; other rows are shown
          only. *)
  | Hash of { fresh : string list; baseline : string list }
      (** The fresh string at [fresh] equals the baseline's at
          [baseline], with no tolerance. *)

type t = {
  name : string;  (** bench id, e.g. ["hier"] *)
  title : string;  (** banner line *)
  out : string;  (** committed baseline, e.g. ["BENCH_hier.json"] *)
  report : quick:bool -> Json.t;
      (** Measure the grid, print its table, return the report. *)
  required : string list list;  (** paths every report carries *)
  probe : quick:bool -> Json.t;
      (** Fresh measurement for the guards ([quick]: smoke scale). *)
  guards : guard list;
}

val find : string list -> Json.t -> Json.t option
val path_name : string list -> string

val missing : ?baseline:bool -> t -> Json.t -> string list
(** The paths of [required] that [json] lacks; with [~baseline:true] also
    every baseline path a guard reads. *)

val quick_out : t -> string
(** [out] with [_quick] before the extension. *)

val run : t -> quick:bool -> out:string -> Json.t
(** Run [report], check it carries [required], add
    ["provenance": {rev, ocaml, profile, cores, timestamp}] and write it
    to [out]. [rev] is read from [.git] in the working directory
    (["unknown"] outside a checkout); [profile] is the dune build
    profile. Returns the written report.
    @raise Failure if a required path is missing. *)

val load_baseline : t -> string -> (Json.t, string) result
(** Parse a committed baseline and check it carries every path the
    suite's report and guards need; [Error] names the file and each
    missing path. *)

type verdict = { ok : bool; text : string }

val judge : profile -> baseline:Json.t -> fresh:Json.t -> guard -> verdict

val guard : ?baseline:string -> t -> profile -> (verdict list, string) result
(** Load [baseline] (default [out]), then [probe ~quick:false] and
    {!judge} every guard. *)

val print_guard : t -> profile -> (verdict list, string) result -> bool
(** Print the verdicts (or the error) and the suite's OK/FAIL line;
    [true] when every guard passed. *)

val check : t list -> bool
(** Every quick run with its report check, then every committed baseline
    check, then every guard, under {!profile}. A step that raises is
    printed and counted as failed, and the run goes on; prints a
    summary and returns [true] when every step passed. *)
