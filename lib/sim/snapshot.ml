(* Self-describing container for session checkpoints.

   The payload ([Driver.Session.freeze]'s marshaled bytes) is plain data
   with no code pointers: any build of the same source reads it.  It
   does not describe its own layout, so the container's job is to fail
   closed — cheaply and *before* the payload reaches
   [Marshal.from_string], whose behavior on corrupt or mis-shaped input
   is undefined — on anything that is not an intact snapshot from a
   writer with the same layout.  Layout (all integers big-endian):

     magic   13 bytes  "rejsched-snap"
     version  4 bytes  container format version (this file's [version])
     policy   4 bytes length + bytes   registry policy name
     payload  8 bytes length + bytes   opaque session freeze
     checksum 8 bytes  FNV-1a 64 over everything above

   The checksum is integrity, not authentication: it catches the
   truncation/bit-rot class of corruption, while the version catches
   stale writers.  Nothing else does — a payload of the old shape would
   unmarshal into the new one — so [version] is bumped on every change
   to the frozen session's layout. *)

type error =
  | Bad_magic
  | Bad_version of int
  | Truncated
  | Checksum_mismatch

let magic = "rejsched-snap"
(* Bump on any layout change of the container or of the frozen session
   it carries: the version is the only guard against a payload of the
   old shape. *)
let version = 6

let error_to_string = function
  | Bad_magic -> "not a rejsched snapshot (bad magic)"
  | Bad_version v -> Printf.sprintf "unsupported snapshot version %d (expected %d)" v version
  | Truncated -> "truncated snapshot"
  | Checksum_mismatch -> "snapshot checksum mismatch (corrupt or bit-rotted)"

(* FNV-1a, 64-bit.  The constants exceed OCaml's 63-bit native ints, so
   the fold runs in [Int64]; boxing is irrelevant here (one pass per
   checkpoint, not per event). *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s pos len =
  let h = ref fnv_offset in
  for k = pos to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[k]))) fnv_prime
  done;
  !h

let add_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let add_u64 buf (v : Int64.t) =
  for k = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL)))
  done

let wrap ~policy ~payload =
  if String.length policy > 0xffff then invalid_arg "Snapshot.wrap: unreasonable policy name";
  let buf = Buffer.create (String.length payload + 64) in
  Buffer.add_string buf magic;
  add_u32 buf version;
  add_u32 buf (String.length policy);
  Buffer.add_string buf policy;
  add_u64 buf (Int64.of_int (String.length payload));
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  let out = Buffer.create (String.length body + 8) in
  Buffer.add_string out body;
  add_u64 out (fnv1a64 body 0 (String.length body));
  Buffer.contents out

let read_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let read_u64 s pos =
  let v = ref 0L in
  for k = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + k]))
  done;
  !v

let unwrap s =
  let len = String.length s in
  let mlen = String.length magic in
  if len < mlen then Error (if String.starts_with ~prefix:s magic then Truncated else Bad_magic)
  else if not (String.equal (String.sub s 0 mlen) magic) then Error Bad_magic
  else if len < mlen + 8 then Error Truncated
  else begin
    let v = read_u32 s mlen in
    if v <> version then Error (Bad_version v)
    else begin
      let plen = read_u32 s (mlen + 4) in
      let pol_end = mlen + 8 + plen in
      if len < pol_end + 8 then Error Truncated
      else begin
        let policy = String.sub s (mlen + 8) plen in
        let paylen64 = read_u64 s pol_end in
        if Int64.compare paylen64 0L < 0 || Int64.compare paylen64 (Int64.of_int max_int) > 0
        then Error Truncated
        else begin
          let paylen = Int64.to_int paylen64 in
          let body_end = pol_end + 8 + paylen in
          if len < body_end + 8 then Error Truncated
          else begin
            (* Validate integrity before handing the payload to Marshal:
               trailing garbage after the checksum is also rejected. *)
            let stored = read_u64 s body_end in
            if len <> body_end + 8 then Error Truncated
            else if not (Int64.equal stored (fnv1a64 s 0 body_end)) then Error Checksum_mismatch
            else Ok (policy, String.sub s (pol_end + 8) paylen)
          end
        end
      end
    end
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
