(* JSON primitives shared by the exporters, plus the NDJSON record
   builder.  Output is deterministic: fields are emitted in the order
   given, floats use the shortest round-tripping representation, and
   non-finite floats — which bare JSON cannot carry — become the quoted
   string tokens "NaN" / "Infinity" / "-Infinity", preserving which
   non-finite value it was (null would collapse all three). *)

(* Keys and the few string values the writers emit rarely need
   escaping, so the common case returns the argument itself. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* The C primitive that Printf's %.0f / %.12g / %.17g conversions end
   in: the same bytes, without interpreting a format at every call. *)
external format_float : string -> float -> string = "caml_format_float"

let float_repr v =
  if Float.is_nan v then "\"NaN\""
  else if v = Float.infinity then "\"Infinity\""
  else if v = Float.neg_infinity then "\"-Infinity\""
  else if Float.is_integer v && Float.abs v <= 1e15 then format_float "%.0f" v
  else begin
    let s = format_float "%.12g" v in
    if float_of_string s = v then s else format_float "%.17g" v
  end

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

let value_to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float v -> float_repr v
  | String s -> "\"" ^ escape s ^ "\""

let obj fields =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun k (name, v) ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape name);
      Buffer.add_string buf "\":";
      match v with
      | String s ->
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape s);
          Buffer.add_char buf '"'
      | v -> Buffer.add_string buf (value_to_string v))
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let line ~schema fields = obj (("schema", String schema) :: fields)

(* --- reading ---------------------------------------------------------- *)

(* A full (nested) JSON tree for the *reading* direction — the writer's
   flat [value] cannot hold objects/arrays.  Small recursive-descent
   reader, total over arbitrary input: [parse] returns a result, never
   raises.  Escapes decode the JSON common set; \uXXXX decodes below
   0x80 and passes the raw escape through otherwise (consumers here are
   machine-generated arrival records, not prose). *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "malformed \\u escape"
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | '"' | '\\' | '/' ->
              Buffer.add_char buf (peek ());
              advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let v =
                (hex s.[!pos] lsl 12) lor (hex s.[!pos + 1] lsl 8) lor (hex s.[!pos + 2] lsl 4)
                lor hex s.[!pos + 3]
              in
              if v < 0x80 then Buffer.add_char buf (Char.chr v)
              else Buffer.add_string buf (String.sub s (!pos - 2) 6);
              pos := !pos + 4
          | _ -> fail "unknown escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "malformed number"
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "malformed literal"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Jobj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); fields ((k, v) :: acc)
            | '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}' in object"
          in
          Jobj (fields [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Jarr []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); items (v :: acc)
            | ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' in array"
          in
          Jarr (items [])
        end
    | '"' -> Jstr (string_body ())
    | 't' -> Jbool (literal "true" true)
    | 'f' -> Jbool (literal "false" false)
    | 'n' -> literal "null" Jnull
    | _ -> Jnum (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = match parse_exn s with v -> Ok v | exception Bad_json msg -> Error msg
let member name = function Jobj kvs -> List.assoc_opt name kvs | _ -> None
