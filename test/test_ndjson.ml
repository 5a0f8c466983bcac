(* Tests for the JSON reader, [Ndjson.parse].

   The reader's numbers are held bit-identical to [float_of_string] on
   the same bytes, over inputs that reach each conversion path: short
   mantissas (Clinger's exact multiply or divide), 17- and 18-digit ones
   (the double-double quotient), exact decimal halves and their
   neighbours, and long mantissas, large exponents and subnormals (the
   [float_of_string] fallback).  The reader it replaced is kept below as
   the differential oracle: every tree the new reader builds, the old one
   built too. *)

module J = Sched_obs.Ndjson

(* --- the reader before it was index-driven, as the oracle -------------- *)

exception Old_bad_json of string

let old_parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Old_bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
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
          J.Jobj []
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
          J.Jobj (fields [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          J.Jarr []
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
          J.Jarr (items [])
        end
    | '"' -> J.Jstr (string_body ())
    | 't' -> J.Jbool (literal "true" true)
    | 'f' -> J.Jbool (literal "false" false)
    | 'n' -> literal "null" J.Jnull
    | _ -> J.Jnum (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let old_parse s = match old_parse_exn s with v -> Ok v | exception Old_bad_json msg -> Error msg

(* --- helpers ----------------------------------------------------------- *)

(* Trees are equal when their numbers are equal bit for bit, so -0 and 0
   differ. *)
let rec same a b =
  match (a, b) with
  | J.Jnum x, J.Jnum y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.Jarr xs, J.Jarr ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | J.Jobj xs, J.Jobj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
  | a, b -> a = b

let rec show = function
  | J.Jnull -> "null"
  | J.Jbool b -> string_of_bool b
  | J.Jnum v -> Printf.sprintf "%h" v
  | J.Jstr s -> Printf.sprintf "%S" s
  | J.Jarr l -> "[" ^ String.concat "," (List.map show l) ^ "]"
  | J.Jobj l -> "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (show v)) l) ^ "}"

let tree = Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (show t)) same

let parses what expected input =
  Alcotest.(check (result tree string)) what (Ok expected) (J.parse input)

let fails what msg input = Alcotest.(check (result tree string)) what (Error msg) (J.parse input)

(* --- direct tests ------------------------------------------------------ *)

let test_structure () =
  parses "nested"
    (J.Jobj [ ("a", J.Jarr [ J.Jnum 1.; J.Jobj [ ("b", J.Jnull) ] ]); ("c", J.Jstr "d") ])
    {|{"a":[1,{"b":null}],"c":"d"}|};
  parses "empty object" (J.Jobj []) "{}";
  parses "empty array" (J.Jarr []) "[]";
  parses "empty containers nested" (J.Jarr [ J.Jobj []; J.Jarr []; J.Jarr [ J.Jarr [] ] ])
    "[{},[],[[]]]";
  parses "whitespace everywhere"
    (J.Jobj [ ("k", J.Jarr [ J.Jbool true; J.Jbool false ]) ])
    " \t\r\n{ \n\"k\"\t:\r[ true ,\nfalse ] } \n";
  parses "literals" (J.Jarr [ J.Jbool true; J.Jbool false; J.Jnull ]) "[true,false,null]";
  parses "bare scalar" (J.Jstr "x") {|"x"|};
  parses "member order and duplicates kept" (J.Jobj [ ("b", J.Jnum 1.); ("a", J.Jnum 2.); ("b", J.Jnum 3.) ])
    {|{"b":1,"a":2,"b":3}|};
  Alcotest.(check (option tree)) "member finds the first binding" (Some (J.Jnum 1.))
    (Option.bind (Result.to_option (J.parse {|{"b":1,"a":2,"b":3}|})) (J.member "b"))

let test_escapes () =
  parses "every short escape" (J.Jstr "\"\\/\b\012\n\r\t") {|"\"\\\/\b\f\n\r\t"|};
  parses "\\u below 0x80 decodes" (J.Jstr "A\001~") {|"\u0041\u0001\u007e"|};
  parses "\\u from 0x80 passes through" (J.Jstr {|\u0080 \u00e9\uFFFF|}) {|"\u0080 \u00e9\uFFFF"|};
  parses "escape after plain bytes" (J.Jstr "abc\ndef") {|"abc\ndef"|};
  parses "escaped key" (J.Jobj [ ("a\"b", J.Jnull) ]) {|{"a\"b":null}|};
  parses "raw bytes kept" (J.Jstr "tab\there \xc3\xa9") "\"tab\there \xc3\xa9\""

let test_errors () =
  List.iter
    (fun (input, msg) -> fails input msg input)
    [
      ("", "malformed number at offset 0");
      ("   ", "malformed number at offset 3");
      ("{", "expected '\"' at offset 1");
      ({|{"a"|}, "expected ':' at offset 4");
      ({|{"a":1|}, "expected ',' or '}' in object at offset 6");
      ({|{"a":1,}|}, "expected '\"' at offset 7");
      ({|{1:2}|}, "expected '\"' at offset 1");
      ("[1", "expected ',' or ']' in array at offset 2");
      ("[1 2]", "expected ',' or ']' in array at offset 3");
      ("[1,]", "malformed number at offset 3");
      ({|"abc|}, "unterminated string at offset 4");
      ({|"a\|}, "unknown escape at offset 3");
      ({|"a\x"|}, "unknown escape at offset 3");
      ({|"\u12|}, "truncated \\u escape at offset 3");
      ({|"\u12g4"|}, "malformed \\u escape at offset 3");
      ("tru", "malformed literal at offset 0");
      ("nul ", "malformed literal at offset 0");
      ("[falsey]", "expected ',' or ']' in array at offset 6");
      ("NaN", "malformed number at offset 0");
      ("Infinity", "malformed number at offset 0");
      ("{} x", "trailing garbage at offset 3");
      ("1 2", "trailing garbage at offset 2");
      ("[1]]", "trailing garbage at offset 3");
      ("0x10", "trailing garbage at offset 1");
    ]

(* JSON's number grammar, strictly: each form below is a prefix of a
   number followed by a byte that would continue one, and is rejected at
   the number's first byte. *)
let test_strict_numbers () =
  List.iter
    (fun (input, at) -> fails input (Printf.sprintf "malformed number at offset %d" at) input)
    [
      ("+1", 0); (".5", 0); ("1.", 0); ("01", 0); ("-", 0); ("1e", 0); ("-01", 0); ("00", 0);
      ("1.e5", 0); ("1e+", 0); ("1E-", 0); ("--1", 0); ("-.5", 0); ("1.5.2", 0); ("1e5e5", 0);
      ("1-2", 0); ("1+2", 0); ("[1,+2]", 3); ({|{"a":.5}|}, 5); ("[-]", 1);
    ];
  List.iter
    (fun (input, v) -> parses input (J.Jnum v) input)
    [
      ("0", 0.); ("-0", -0.); ("0.0", 0.); ("-0.0e-5", -0.); ("0e400", 0.); ("1", 1.);
      ("-1.5", -1.5); ("2.5E+3", 2500.); ("1e-7", 1e-7); ("10", 10.); ("1E2", 100.);
      ("0.000001", 1e-6); ("1e400", infinity); ("-1e400", neg_infinity); ("1e-400", 0.);
    ]

(* Nesting is bounded, so a line of three million '[' is an error, not a
   stack overflow. *)
let test_deep_nesting () =
  fails "3M-deep array" "nesting too deep at offset 512" (String.make 3_000_000 '[');
  fails "3M-deep object" "nesting too deep at offset 2560"
    (String.concat "" (List.init 600_000 (fun _ -> {|{"a":|})));
  let nest d = String.make d '[' ^ String.make d ']' in
  Alcotest.(check bool) "512 levels parse" true (Result.is_ok (J.parse (nest 512)));
  fails "513 levels" "nesting too deep at offset 512" (nest 513)

(* Every checked-in bench baseline (bench/main.ml reads the newest one
   through [parse]) reads to the old reader's tree. *)
let test_bench_baselines () =
  let files =
    Sys.readdir ".."
    |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_pr" f && Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "baselines found" true (List.length files >= 8);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat ".." f) In_channel.input_all in
      match (old_parse text, J.parse text) with
      | Ok old, Ok fresh -> Alcotest.check tree f old fresh
      | Error e, _ -> Alcotest.failf "%s: the old reader fails: %s" f e
      | _, Error e -> Alcotest.failf "%s: %s" f e)
    files

(* --- numbers: bit-identical to float_of_string -------------------------- *)

let bits v = Int64.bits_of_float v

let reads_like_float_of_string s =
  match J.parse s with
  | Ok (J.Jnum v) -> Int64.equal (bits v) (bits (float_of_string s))
  | Ok t -> QCheck.Test.fail_reportf "%s read as %s" s (show t)
  | Error e -> QCheck.Test.fail_reportf "%s: %s" s e

(* Places a decimal point in a digit string, or an exponent, or both, to
   write the value digits * 10^k in one of JSON's forms. *)
let write_decimal ~neg digits k form =
  let sign = if neg then "-" else "" in
  let len = String.length digits in
  match form with
  | 0 -> Printf.sprintf "%s%se%d" sign digits k
  | 1 when k < 0 && -k < len ->
      Printf.sprintf "%s%s.%s" sign (String.sub digits 0 (len + k)) (String.sub digits (len + k) (-k))
  | 1 when k < 0 -> Printf.sprintf "%s0.%s%s" sign (String.make (-k - len) '0') digits
  | 2 when len > 1 ->
      Printf.sprintf "%s%s.%sE%+d" sign (String.sub digits 0 1) (String.sub digits 1 (len - 1)) (k + len - 1)
  | _ -> Printf.sprintf "%s%se%+d" sign digits k

(* A digit string without leading zeros (one digit may be "0"). *)
let digits_gen len =
  QCheck.Gen.(
    map2
      (fun first rest -> String.make 1 first ^ String.concat "" (List.map (String.make 1) rest))
      (char_range '1' '9')
      (list_repeat (len - 1) (char_range '0' '9')))

let pow2_53 = 9007199254740992

(* An exact half-way point between adjacent doubles with a short decimal
   form: doubles in [2^52, 2^53) * 2^-j are 2^-j apart, so their
   midpoints are N * 2^-(j+1) = N * 5^(j+1) * 10^-(j+1) for odd N in
   (2^53, 2^54), with 17 to 19 digits for j <= 2; the odd N themselves
   are the midpoints in [2^53, 2^54).  [delta] moves the last digit off
   the half by one unit either way. *)
let half_gen =
  QCheck.Gen.(
    map4
      (fun a j delta form ->
        let odd = pow2_53 + (2 * a) + 1 in
        let m, k = if j < 0 then (odd, 0) else (odd * int_of_float (5. ** float_of_int (j + 1)), -(j + 1)) in
        write_decimal ~neg:false (string_of_int (m + delta)) k form)
      (int_range 0 (pow2_53 / 2 - 1))
      (int_range (-1) 2) (int_range (-1) 1) (int_range 0 3))

let number_gen =
  let open QCheck.Gen in
  let any_float = map Int64.float_of_bits ui64 in
  let finite = map (fun v -> if Float.is_finite v then v else 0.5) any_float in
  let subnormal = map (fun b -> Int64.(float_of_bits (logand b 0x800F_FFFF_FFFF_FFFFL))) ui64 in
  let moderate = map2 (fun x neg -> if neg then -.(10. ** x) else 10. ** x) (float_range (-8.) 17.) bool in
  let printed fmt = map (Printf.sprintf fmt) in
  let edge_m =
    oneofl
      [ "9007199254740991"; "9007199254740992"; "9007199254740993"; "9007199254740994";
        "4611686018427387903"; "4611686018427387904"; "4611686018427387905";
        "999999999999999999"; "1000000000000000000"; "100000000000000000"; "99999999999999999" ]
  in
  oneof
    [
      (* random doubles at each precision serve's writers and others print *)
      printed "%.17g" any_float |> map (fun s -> if Float.is_finite (float_of_string s) then s else "1");
      printed "%.17g" moderate; printed "%.16g" moderate; printed "%.15g" moderate;
      printed "%.12g" moderate; printed "%.3g" moderate; printed "%.17g" finite;
      printed "%.17g" subnormal |> map (fun s -> if s = "nan" || s = "-nan" then "0" else s);
      map Sched_obs.Ndjson.float_repr moderate;
      map Sched_obs.Ndjson.float_repr finite;
      (* 1 to 19 digit mantissas, exponents across and just past +-22 *)
      map4
        (fun d k neg form -> write_decimal ~neg d k form)
        (int_range 1 19 >>= digits_gen) (int_range (-26) 26) bool (int_range 0 3);
      map4
        (fun d k neg form -> write_decimal ~neg d k form)
        (int_range 1 19 >>= digits_gen)
        (oneofl [ -24; -23; -22; -21; 21; 22; 23; 24 ])
        bool (int_range 0 3);
      (* mantissas at 2^53 +- 1, 2^62 and the 18-digit edge *)
      map3 (fun d k form -> write_decimal ~neg:false d k form) edge_m (int_range (-24) 24) (int_range 0 3);
      half_gen;
      (* leading zeros in the fraction, long mantissas, large exponents *)
      map2 (fun z d -> "0." ^ String.make z '0' ^ d) (int_range 0 30) (int_range 1 20 >>= digits_gen);
      map2 (fun d k -> write_decimal ~neg:false d k 0) (int_range 19 40 >>= digits_gen) (int_range (-40) 10);
      map2 (fun d k -> write_decimal ~neg:false d k 0) (int_range 1 17 >>= digits_gen) (int_range (-345) 310);
    ]

let test_numbers_match_float_of_string =
  QCheck.Test.make ~name:"numbers read bit-identical to float_of_string" ~count:300_000
    (QCheck.make ~print:Fun.id number_gen)
    reads_like_float_of_string
  |> QCheck_alcotest.to_alcotest

(* Fixed inputs at each path's edges, so a run of the property that
   misses them still checks them. *)
let test_number_edges () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (reads_like_float_of_string s))
    [
      "9007199254740993.0"; "9007199254740995.0"; "4503599627370496.5"; "4503599627370497.5";
      "2251799813685248.25"; "2251799813685248.75"; "9007199254740993"; "9007199254740993e0";
      "900719925474099.3e1"; "4503599627370496.4999999"; "4503599627370496.5000001";
      "9007199254740991e-22"; "9007199254740992e-22"; "9007199254740993e-22";
      "999999999999999999e-22"; "999999999999999999e-23"; "1e22"; "1e23"; "1e-22"; "1e-23";
      "4611686018427387904"; "4611686018427387904e-1"; "0.1"; "0.2"; "0.3";
      "3.7152091579147335"; "1.2156126901483413"; "4996.2489642590317"; "5e-324";
      "2.2250738585072014e-308"; "2.2250738585072011e-308"; "1.7976931348623157e308";
      "1.7976931348623159e308"; "123456789012345678901234567890"; "-0.0000000000000000000001";
    ]

(* A random printable JSON-ish string: whatever the new reader accepts,
   the old one accepted as the same tree; whatever the old one refused,
   the new one refuses. *)
let test_differential_against_old_reader =
  let fragment =
    QCheck.Gen.oneofl
      [ "{"; "}"; "["; "]"; ","; ":"; " "; "\n"; "\""; "\\"; "\\n"; "\\u0041"; "\\u00e9"; "a"; "key";
        "true"; "false"; "null"; "0"; "1"; "-"; "+"; "."; "e"; "E"; "5"; "01"; "1.5"; "2e3";
        "3.7152091579147335"; {|"k":|}; {|{"a":|}; {|[1,2]|}; {|"s"|} ]
  in
  QCheck.Test.make ~name:"new reader accepts a subset of the old, with the same trees" ~count:50_000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(map (String.concat "") (list_size (int_range 0 12) fragment)))
    (fun s ->
      match (J.parse s, old_parse s) with
      | Ok fresh, Ok old -> same fresh old
      | Ok _, Error e -> QCheck.Test.fail_reportf "only the old reader refuses: %s" e
      | Error _, _ -> true)
  |> QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "objects, arrays, whitespace, literals" `Quick test_structure;
    Alcotest.test_case "escapes and \\u" `Quick test_escapes;
    Alcotest.test_case "error messages and offsets" `Quick test_errors;
    Alcotest.test_case "strict number grammar" `Quick test_strict_numbers;
    Alcotest.test_case "deep nesting is an error" `Quick test_deep_nesting;
    Alcotest.test_case "bench baselines read as before" `Quick test_bench_baselines;
    Alcotest.test_case "number edges match float_of_string" `Quick test_number_edges;
    test_numbers_match_float_of_string;
    test_differential_against_old_reader;
  ]
