(* JSON primitives shared by the exporters, plus the NDJSON record
   builder.  Output is deterministic: fields are emitted in the order
   given, floats print as %.12g when that reads back exactly and as
   %.17g otherwise (integral ones as %.0f), and non-finite floats —
   which bare JSON cannot carry — become the quoted string tokens
   "NaN" / "Infinity" / "-Infinity", preserving which non-finite value
   it was (null would collapse all three). *)

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

(* The general path: %.12g if it reads back as [v], else %.17g. *)
let printf_repr v =
  let s = format_float "%.12g" v in
  if float_of_string s = v then s else format_float "%.17g" v

(* --- exact %.12g / %.17g digits for 1e-4 <= |v| < 1e11 ----------------

   The digits of %.Pg are N = round(a * 10^k), a = |v|, k = P-1-e, where
   10^e <= a < 10^(e+1).  In this range e is in [-4, 10], so %g uses its
   fixed layout (never the exponent form) at both precisions, k is in
   [1, 20] and 10^k is an exact double.  The product a * 10^k is taken
   exactly as hi + lo (Dekker's two-product with Veltkamp splitting, not
   Float.fma, which is best-effort on some platforms), so N and the test
   for an exact half are exact too.  An exact half is left to
   [printf_repr]: printf breaks it by the rounding mode, and no value
   serve writes needs the case to be fast. *)

(* 10^k for k in [0, 22]: the powers of ten that are exact doubles.  A
   match, not an array, so the table cannot be written to. *)
let pow10 = function
  | 0 -> 1e0 | 1 -> 1e1 | 2 -> 1e2 | 3 -> 1e3 | 4 -> 1e4 | 5 -> 1e5 | 6 -> 1e6 | 7 -> 1e7
  | 8 -> 1e8 | 9 -> 1e9 | 10 -> 1e10 | 11 -> 1e11 | 12 -> 1e12 | 13 -> 1e13 | 14 -> 1e14
  | 15 -> 1e15 | 16 -> 1e16 | 17 -> 1e17 | 18 -> 1e18 | 19 -> 1e19 | 20 -> 1e20 | 21 -> 1e21
  | 22 -> 1e22
  | k -> invalid_arg (Printf.sprintf "Ndjson.pow10 %d" k)

(* Veltkamp's split of x into a 26-bit high half and the rest.  This
   and [product_error] are inlined so that their float results stay
   unboxed: a call would allocate 8 words per formatted value. *)
let split_hi x =
  let c = 134217729. *. x in
  c -. (c -. x)
[@@inline]

(* The rounding error of [hi = a *. pow10 k]: a * 10^k = hi + lo
   exactly. *)
let product_error a k hi =
  let b = pow10 k in
  let ah = split_hi a and bh = split_hi b in
  let al = a -. ah and bl = b -. bh in
  (al *. bl) -. (((hi -. (ah *. bh)) -. (al *. bh)) -. (ah *. bl))
[@@inline]

(* The e with 10^e <= a < 10^(e+1), for a in [1e-4, 1e11).  Comparing
   with the doubles nearest the powers of ten is exact here: 10^j is a
   double for j >= 0, and for j in [-4, -1] the nearest double lies
   above 10^j, so no double falls between the two. *)
let decade a =
  if a >= 1. then begin
    let e = ref 0 in
    while a >= pow10 (!e + 1) do
      incr e
    done;
    !e
  end
  else if a >= 1e-1 then -1
  else if a >= 1e-2 then -2
  else if a >= 1e-3 then -3
  else -4

(* round(a * 10^k) for a * 10^k >= 1, or -1 when a * 10^k is exactly
   half-way between two integers. *)
let round_scaled a k =
  let hi = a *. pow10 k in
  let lo = product_error a k hi in
  if hi < 0x1p52 then begin
    (* The fraction of a * 10^k is r + lo, r = hi - floor hi, and lies in
       (-1/2, 1); r - 1/2 is exact, as hi >= 1 puts r on a grid no finer
       than 2^-52. *)
    let f = Float.floor hi in
    let d = hi -. f -. 0.5 in
    if d > -.lo then int_of_float f + 1 else if d < -.lo then int_of_float f else -1
  end
  else begin
    (* hi is an integer, and lo, at most half an ulp of hi (8 below
       2^57), holds the whole fraction; g + 1/2 is exact. *)
    let g = Float.floor lo in
    let half = g +. 0.5 in
    let n = int_of_float hi + int_of_float g in
    if lo > half then n + 1 else if lo < half then n else -1
  end

(* %g's fixed layout of N * 10^(e-p+1), N of p digits, with trailing
   zeros and a bare '.' stripped.  N = 10^p is a carry into the next
   decade.  [float_repr] never prints one: a 12-digit carry reads back
   as a power of ten, not as a non-integral double of the range, and a
   17-digit carry would need a double closer to a power of ten than
   the range holds. *)
let render ~neg n p e =
  let carry = n = int_of_float (pow10 p) in
  let n = ref (if carry then n / 10 else n) in
  let e = if carry then e + 1 else e in
  let frac_len = ref (p - 1 - e) in
  while !frac_len > 0 && !n mod 10 = 0 do
    n := !n / 10;
    decr frac_len
  done;
  let int_len = if e >= 0 then e + 1 else 1 in
  let dot = if !frac_len > 0 then 1 else 0 in
  let len = Bool.to_int neg + int_len + dot + !frac_len in
  let b = Bytes.create len in
  let pos = ref (len - 1) in
  for k = 1 to !frac_len + dot + int_len do
    if k = !frac_len + 1 && dot = 1 then Bytes.unsafe_set b !pos '.'
    else begin
      Bytes.unsafe_set b !pos (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    end;
    decr pos
  done;
  if neg then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

(* 12 digits when they read back as [v], else 17.  The 12-digit string
   is N / 10^k with N < 2^53 and 10^k exact, so one IEEE division gives
   what strtod returns for it (Clinger's fast path). *)
let fixed_repr v a =
  let e = decade a in
  let n12 = round_scaled a (11 - e) in
  if n12 < 0 then printf_repr v
  else if Float.equal (float_of_int n12 /. pow10 (11 - e)) a then render ~neg:(v < 0.) n12 12 e
  else begin
    let n17 = round_scaled a (16 - e) in
    if n17 < 0 then printf_repr v else render ~neg:(v < 0.) n17 17 e
  end

let float_repr v =
  if Float.is_nan v then "\"NaN\""
  else if v = Float.infinity then "\"Infinity\""
  else if v = Float.neg_infinity then "\"-Infinity\""
  else if Float.is_integer v && Float.abs v <= 1e15 then format_float "%.0f" v
  else begin
    let a = Float.abs v in
    if a >= 1e-4 && a < 1e11 then fixed_repr v a else printf_repr v
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
