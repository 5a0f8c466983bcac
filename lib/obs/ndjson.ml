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

(* The C primitive that Printf's %.12g / %.17g conversions end
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

(* Writes the low [len] decimal digits of [n] >= 0 into [b], right to
   left, ending at index [last]; returns the digits left over. *)
let fill_digits b last len n =
  let n = ref n in
  for p = last downto last - len + 1 do
    Bytes.unsafe_set b p (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  !n

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
  let n = fill_digits b (len - 1) !frac_len !n in
  if dot = 1 then Bytes.unsafe_set b (len - 1 - !frac_len) '.';
  ignore (fill_digits b (len - 1 - !frac_len - dot) int_len n);
  if neg then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

(* [string_of_int]'s bytes without its C format call: the digits go
   through [fill_digits].  [min_int] has no positive counterpart, so its
   string is made once. *)
let min_int_repr = string_of_int min_int

let int_repr i =
  if i = min_int then min_int_repr
  else begin
    let a = abs i in
    let digits = ref 1 and bound = ref 10 in
    while !digits < 19 && a >= !bound do
      incr digits;
      bound := !bound * 10
    done;
    let neg = i < 0 in
    let len = Bool.to_int neg + !digits in
    let b = Bytes.create len in
    ignore (fill_digits b (len - 1) !digits a);
    if neg then Bytes.unsafe_set b 0 '-';
    Bytes.unsafe_to_string b
  end

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
  else if Float.is_integer v && Float.abs v <= 1e15 then
    (* %.0f's bytes: the integer's digits, and "-0" for negative zero. *)
    if Float.sign_bit v && v = 0. then "-0" else int_repr (int_of_float v)
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
  | Int i -> int_repr i
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
   flat [value] cannot hold objects/arrays.  A recursive-descent reader
   of top-level functions over one cursor, total over arbitrary input:
   [parse] returns a result, never raises.  Escapes decode the JSON
   common set; \uXXXX decodes below 0x80 and passes the raw escape
   through otherwise (consumers here are machine-generated arrival
   records, not prose).  Nesting deeper than [max_depth] is an error, so
   no input can exhaust the stack. *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

(* The input and the offset of the next unread byte. *)
type cursor = { s : string; mutable pos : int }

let max_depth = 512
let error_at pos msg = Bad_json (Printf.sprintf "%s at offset %d" msg pos)
let fail_at pos msg = raise (error_at pos msg)
let fail c msg = fail_at c.pos msg
let peek c = if c.pos < String.length c.s then String.unsafe_get c.s c.pos else '\000' [@@inline]

let skip_ws c =
  let s = c.s in
  let p = ref c.pos in
  while
    !p < String.length s
    && match String.unsafe_get s !p with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr p
  done;
  c.pos <- !p

let expect c ch =
  if peek c <> ch then fail c (Printf.sprintf "expected '%c'" ch);
  c.pos <- c.pos + 1

(* --- strings --- *)

let hex c p =
  match String.unsafe_get c.s p with
  | '0' .. '9' as d -> Char.code d - Char.code '0'
  | 'a' .. 'f' as d -> Char.code d - Char.code 'a' + 10
  | 'A' .. 'F' as d -> Char.code d - Char.code 'A' + 10
  | _ -> fail c "malformed \\u escape"

(* The rest of a string whose escapes start at [c.pos], into [buf]. *)
let rec read_escaped c buf =
  if c.pos >= String.length c.s then fail c "unterminated string";
  match String.unsafe_get c.s c.pos with
  | '"' ->
      c.pos <- c.pos + 1;
      Buffer.contents buf
  | '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
      | 'u' ->
          c.pos <- c.pos + 1;
          if c.pos + 4 > String.length c.s then fail c "truncated \\u escape";
          let p = c.pos in
          let v = (hex c p lsl 12) lor (hex c (p + 1) lsl 8) lor (hex c (p + 2) lsl 4) lor hex c (p + 3) in
          if v < 0x80 then Buffer.add_char buf (Char.chr v)
          else Buffer.add_substring buf c.s (p - 2) 6;
          c.pos <- p + 4
      | e ->
          Buffer.add_char buf
            (match e with
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | '"' | '\\' | '/' -> e
            | _ -> fail c "unknown escape");
          c.pos <- c.pos + 1);
      read_escaped c buf
  | ch ->
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1;
      read_escaped c buf

(* A string's body: one [String.sub] when it holds no escape. *)
let read_string c =
  expect c '"';
  let s = c.s and start = c.pos in
  let p = ref start in
  while
    !p < String.length s
    && match String.unsafe_get s !p with '"' | '\\' -> false | _ -> true
  do
    incr p
  done;
  if !p < String.length s && String.unsafe_get s !p = '"' then begin
    c.pos <- !p + 1;
    String.sub s start (!p - start)
  end
  else begin
    let buf = Buffer.create (!p - start + 16) in
    Buffer.add_substring buf s start (!p - start);
    c.pos <- !p;
    read_escaped c buf
  end

(* --- numbers ---

   A number is read under the strict JSON grammar
     -? (0 | [1-9] [0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
   into a decimal mantissa M of at most 18 significant digits and an
   exponent k, value M * 10^k, and converted by the first path that
   applies:
   - M < 2^53 and |k| <= 22: M and 10^|k| are exact doubles, so one
     IEEE multiply or divide is the correctly rounded value (Clinger's
     fast path).
   - -22 <= k < 0: [quotient] below.
   - otherwise (more than 18 significant digits, a larger exponent, a
     value [quotient] cannot vouch for): [float_of_string] on the span.
   Every path returns the double nearest the decimal, ties to even, as
   strtod does, so the value is [float_of_string]'s bit for bit.  The
   number must end at a byte that cannot continue it: "01", "1.", "1e",
   "-", "+1" and ".5" are malformed, not read as a prefix. *)

let is_digit s p = p < String.length s && match String.unsafe_get s p with '0' .. '9' -> true | _ -> false
[@@inline]

let digit s p = Char.code (String.unsafe_get s p) - Char.code '0' [@@inline]

let continues_number = function '0' .. '9' | '+' | '-' | '.' | 'e' | 'E' -> true | _ -> false

(* The double nearest M / 10^q, for 2^53 <= M < 10^18 and 1 <= q <= 22,
   or nan when the bound below cannot vouch for it.  With D = 10^q and
   M = Mh + Ml, Mh the double nearest M (|Ml| <= 64):
   - x = fl(Mh / D);
   - the remainder r = Mh - x * D is a double (the remainder of a
     correctly rounded quotient is), and it is computed exactly: x * D
     is p + [product_error] exactly, and Mh - p is exact by Sterbenz's
     lemma, as p is within a factor 2 of Mh;
   - M / D = x + c exactly, with c = (r + Ml) / D.  The computed c'
     carries two roundings, so |c' - c| < 2^-51 |c'|.
   The result rounds x + c to nearest.  Rounding is monotone, so when
   x + (c' - e) and x + (c' + e), e = 2^-51 |c'|, round to the same
   double, that double is the answer (e is twice the bound, which also
   covers the rounding of c' +- e); they differ only when c' lies within
   e of a rounding boundary (half an ulp of x, or a quarter below a
   power of two), and then the caller falls back.  With at most 18
   digits, a decimal that is not a tie lies at least 2^52 / M > 2^-8 ulp
   from every boundary, far outside e, so only exact ties fall back.  At
   a tie c' is exact and x + c' would round half to even as strtod does:
   the check makes the argument local, it does not change a bit. *)
let quotient m q =
  let mh = float_of_int m in
  let ml = float_of_int (m - int_of_float mh) in
  let d = pow10 q in
  let x = mh /. d in
  let p = x *. d in
  let r = mh -. p -. product_error x q p in
  let c = (r +. ml) /. d in
  let e = Float.abs c *. 0x1p-51 in
  let lo = x +. (c -. e) and hi = x +. (c +. e) in
  if Float.equal lo hi then lo else Float.nan
[@@inline]

(* The number at [c.pos]. *)
let read_number c =
  let s = c.s and start = c.pos in
  let p = ref start in
  let neg = !p < String.length s && String.unsafe_get s !p = '-' in
  if neg then incr p;
  (* The mantissa keeps at most 18 significant digits; [long] marks one
     more.  Leading zeros leave it 0 and count for nothing. *)
  let m = ref 0 and k = ref 0 and long = ref false in
  if not (is_digit s !p) then fail_at start "malformed number";
  if String.unsafe_get s !p = '0' then incr p
  else
    while is_digit s !p do
      if !m < 100_000_000_000_000_000 then m := (!m * 10) + digit s !p else long := true;
      incr p
    done;
  if !p < String.length s && String.unsafe_get s !p = '.' then begin
    incr p;
    if not (is_digit s !p) then fail_at start "malformed number";
    while is_digit s !p do
      if !m < 100_000_000_000_000_000 then begin
        m := (!m * 10) + digit s !p;
        decr k
      end
      else long := true;
      incr p
    done
  end;
  if !p < String.length s && (String.unsafe_get s !p = 'e' || String.unsafe_get s !p = 'E') then begin
    incr p;
    let eneg = !p < String.length s && String.unsafe_get s !p = '-' in
    if eneg || (!p < String.length s && String.unsafe_get s !p = '+') then incr p;
    if not (is_digit s !p) then fail_at start "malformed number";
    let e = ref 0 in
    while is_digit s !p do
      if !e < 100_000 then e := (!e * 10) + digit s !p;
      incr p
    done;
    k := if eneg then !k - !e else !k + !e
  end;
  if !p < String.length s && continues_number (String.unsafe_get s !p) then fail_at start "malformed number";
  c.pos <- !p;
  let m = !m and k = !k in
  let fast =
    if !long then Float.nan
    else if m = 0 then 0.
    else if m < 0x20_0000_0000_0000 && k >= -22 && k <= 22 then
      if k >= 0 then float_of_int m *. pow10 k else float_of_int m /. pow10 (-k)
    else if k >= -22 && k < 0 then quotient m (-k)
    else Float.nan
  in
  if Float.is_nan fast then float_of_string (String.sub s start (!p - start))
  else if neg then -.fast
  else fast

(* --- values --- *)

let literal c word v =
  let len = String.length word in
  if c.pos + len <= String.length c.s && String.equal (String.sub c.s c.pos len) word then begin
    c.pos <- c.pos + len;
    v
  end
  else fail c "malformed literal"

let rec read_value c depth =
  skip_ws c;
  match peek c with
  | '{' ->
      if depth >= max_depth then fail c "nesting too deep";
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = '}' then begin
        c.pos <- c.pos + 1;
        Jobj []
      end
      else Jobj (read_members c (depth + 1))
  | '[' ->
      if depth >= max_depth then fail c "nesting too deep";
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = ']' then begin
        c.pos <- c.pos + 1;
        Jarr []
      end
      else Jarr (read_items c (depth + 1))
  | '"' -> Jstr (read_string c)
  | 't' -> literal c "true" (Jbool true)
  | 'f' -> literal c "false" (Jbool false)
  | 'n' -> literal c "null" Jnull
  | _ -> Jnum (read_number c)

(* An object's members after its '{', in order, through its '}'. *)
and[@tail_mod_cons] read_members c depth =
  skip_ws c;
  let k = read_string c in
  skip_ws c;
  expect c ':';
  let v = read_value c depth in
  skip_ws c;
  match peek c with
  | ',' ->
      c.pos <- c.pos + 1;
      (k, v) :: read_members c depth
  | '}' ->
      c.pos <- c.pos + 1;
      [ (k, v) ]
  | _ -> raise (error_at c.pos "expected ',' or '}' in object")

(* An array's items after its '[', in order, through its ']'. *)
and[@tail_mod_cons] read_items c depth =
  let v = read_value c depth in
  skip_ws c;
  match peek c with
  | ',' ->
      c.pos <- c.pos + 1;
      v :: read_items c depth
  | ']' ->
      c.pos <- c.pos + 1;
      [ v ]
  | _ -> raise (error_at c.pos "expected ',' or ']' in array")

let parse s =
  let c = { s; pos = 0 } in
  match
    let v = read_value c 0 in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad_json msg -> Error msg

let member name = function Jobj kvs -> List.assoc_opt name kvs | _ -> None
