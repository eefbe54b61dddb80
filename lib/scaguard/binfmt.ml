(* Wire vocabulary shared by every binary artefact Persist writes.  Two
   invariants matter to callers:

   - floats travel as their 8-byte bit patterns, so a decode . encode
     round-trip is the identity on every value (the text format gets the
     same guarantee from %.17g, at 2-3x the bytes);
   - the reader never raises out of [run]: truncation, overlong varints and
     absurd counts all land in one internal exception that [run] converts
     to a typed Err.Parse with the byte offset. *)

let add_u8 buf b = Buffer.add_char buf (Char.chr (b land 0xff))

(* Unsigned LEB128 over the int's 63-bit pattern: [lsr] shifts zeros in, so
   a negative int (top bit set) encodes as its unsigned pattern in at most
   9 groups of 7 bits — exactly recoverable. *)
let add_uint buf n =
  let rec go n =
    let b = n land 0x7f in
    let rest = n lsr 7 in
    if rest = 0 then add_u8 buf b
    else begin
      add_u8 buf (b lor 0x80);
      go rest
    end
  in
  go n

(* Zigzag: sign goes to bit 0, magnitude shifts up; small |n| stays small.
   The shifts wrap modulo the native int width, which is precisely what
   makes max_int and min_int round-trip. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (-(z land 1))
let add_int buf n = add_uint buf (zigzag n)
let add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_string buf s =
  add_uint buf (String.length s);
  Buffer.add_string buf s

(* ---- reading --------------------------------------------------------------- *)

type reader = { data : string; mutable pos : int; file : string option }

exception Stop of int * string
(* byte offset, message — private to this module; [run] catches it *)

let reader ?file data = { data; pos = 0; file }
let pos r = r.pos
let length r = String.length r.data
let remaining r = String.length r.data - r.pos
let fail r fmt = Printf.ksprintf (fun msg -> raise (Stop (r.pos, msg))) fmt

let u8 r =
  if r.pos >= String.length r.data then fail r "unexpected end of input";
  let b = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  b

let uint r =
  let rec go acc shift =
    if shift >= Sys.int_size then fail r "overlong varint";
    let b = u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  go 0 0

let int r = unzigzag (uint r)

let bytes r n =
  if n < 0 || n > remaining r then
    fail r "truncated input: %d bytes requested, %d remain" n (remaining r);
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let float r =
  if remaining r < 8 then fail r "truncated float";
  let bits = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits bits

let string r = bytes r (uint r)

let expect r expected =
  let n = String.length expected in
  if remaining r < n || String.sub r.data r.pos n <> expected then
    fail r "expected %S" expected;
  r.pos <- r.pos + n

(* Every counted element occupies at least one byte downstream, so a count
   larger than what remains is corruption — reject it before Array.init can
   turn it into a giant allocation.  A nine-group varint can set the sign
   bit, so negative counts are corruption too. *)
let count r ~what =
  let n = uint r in
  if n < 0 || n > remaining r then
    fail r "corrupt %s count %d (only %d bytes remain)" what n (remaining r);
  n

let run ?file parse s =
  let r = reader ?file s in
  match parse r with
  | v -> Ok v
  | exception Stop (off, msg) ->
    Error
      (Err.Parse
         { file; line = None; msg = Printf.sprintf "%s at byte %d" msg off })
