(* Minimal JSON tree, emitter and parser — just enough for the benchmark
   harness to write `BENCH_*.json` files and for the smoke test to read
   them back and assert required keys, without pulling in a JSON
   dependency the container may not have. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* -- emit ---------------------------------------------------------------- *)

let escape_string s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec emit b ~indent ~level v =
  let pad n = String.make (n * indent) ' ' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num x ->
    if not (Float.is_finite x) then Buffer.add_string b "null"
    else Buffer.add_string b (number_to_string x)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape_string s);
    Buffer.add_char b '"'
  | Arr [] -> Buffer.add_string b "[]"
  | Arr xs ->
    Buffer.add_string b "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b (pad (level + 1));
        emit b ~indent ~level:(level + 1) x)
      xs;
    Buffer.add_char b '\n';
    Buffer.add_string b (pad level);
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b (pad (level + 1));
        Buffer.add_char b '"';
        Buffer.add_string b (escape_string k);
        Buffer.add_string b "\": ";
        emit b ~indent ~level:(level + 1) x)
      fields;
    Buffer.add_char b '\n';
    Buffer.add_string b (pad level);
    Buffer.add_char b '}'

(* Single-line emission for JSON-lines streams: no newlines anywhere, one
   value per call. Writes into the caller's buffer so a trace exporter can
   reuse one scratch buffer across millions of events. *)
let rec emit_compact b v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num x ->
    if not (Float.is_finite x) then Buffer.add_string b "null"
    else Buffer.add_string b (number_to_string x)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape_string s);
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit_compact b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape_string k);
        Buffer.add_string b "\":";
        emit_compact b x)
      fields;
    Buffer.add_char b '}'

let to_buffer_compact b v = emit_compact b v

let to_string ?(indent = 2) v =
  let b = Buffer.create 4096 in
  emit b ~indent ~level:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_file ?indent path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?indent v))

(* -- parse --------------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let expect_lit c lit v =
  if
    c.pos + String.length lit <= String.length c.src
    && String.sub c.src c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    v
  end
  else fail c (Printf.sprintf "expected %S" lit)

let parse_string_body c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents b
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some 'n' -> Buffer.add_char b '\n'
      | Some 't' -> Buffer.add_char b '\t'
      | Some 'r' -> Buffer.add_char b '\r'
      | Some ('"' | '\\' | '/') -> Buffer.add_char b (Option.get (peek c))
      | Some 'u' ->
        (* keep it simple: decode BMP escapes as a raw byte when < 256 *)
        if c.pos + 4 >= String.length c.src then fail c "bad \\u escape";
        let hex = String.sub c.src (c.pos + 1) 4 in
        let code = int_of_string ("0x" ^ hex) in
        if code < 256 then Buffer.add_char b (Char.chr code)
        else Buffer.add_string b (Printf.sprintf "\\u%s" hex);
        c.pos <- c.pos + 4
      | _ -> fail c "bad escape");
      advance c;
      go ()
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch when is_num_char ch -> true | _ -> false do
    advance c
  done;
  if c.pos = start then fail c "expected number";
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some x -> x
  | None -> fail c "malformed number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance c;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail c "expected ',' or '}'"
      in
      fields []
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elems (v :: acc)
        | Some ']' ->
          advance c;
          Arr (List.rev (v :: acc))
        | _ -> fail c "expected ',' or ']'"
      in
      elems []
    end
  | Some '"' -> Str (parse_string_body c)
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some _ -> Num (parse_number c)

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* -- accessors ----------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None

let to_float = function Num x -> Some x | _ -> None
