exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Everything is 8-byte little-endian: ints as int64, floats via their
   IEEE-754 bit pattern (Int64.bits_of_float), so decode/encode round
   trips are bitwise exact — including NaN payloads and signed zeros. *)

let w_i64 buf (x : int64) = Buffer.add_int64_le buf x
let w_int buf n = w_i64 buf (Int64.of_int n)
let w_float buf f = w_i64 buf (Int64.bits_of_float f)
let w_bool buf b = w_int buf (if b then 1 else 0)

let w_string buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_int_array buf a =
  w_int buf (Array.length a);
  Array.iter (w_int buf) a

let w_float_array buf a =
  w_int buf (Array.length a);
  Array.iter (w_float buf) a

let w_bool_array buf a =
  w_int buf (Array.length a);
  Array.iter (w_bool buf) a

let w_list w buf l =
  w_int buf (List.length l);
  List.iter (w buf) l

let w_option w buf = function
  | None -> w_int buf 0
  | Some x ->
    w_int buf 1;
    w buf x

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let remaining r = String.length r.src - r.pos

let skip r n =
  if remaining r < n then corrupt "truncated input at byte %d" r.pos;
  r.pos <- r.pos + n

let r_i64 r =
  if remaining r < 8 then corrupt "truncated input at byte %d" r.pos;
  let x = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  x

let r_int r =
  let x = r_i64 r in
  let n = Int64.to_int x in
  if Int64.of_int n <> x then corrupt "integer out of range at byte %d" (r.pos - 8);
  n

let r_float r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_int r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "invalid boolean %d at byte %d" n (r.pos - 8)

let r_len r what =
  let n = r_int r in
  if n < 0 then corrupt "negative %s length at byte %d" what (r.pos - 8);
  n

let r_string r =
  let n = r_len r "string" in
  if remaining r < n then corrupt "truncated string at byte %d" r.pos;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* Guard bulk lengths against the remaining bytes before allocating, so a
   corrupted length can't demand a giant array. Divide rather than
   multiply: [8 * n] wraps for n > max_int / 8 and would pass. *)
let check_bulk r n =
  if n > remaining r / 8 then corrupt "truncated array at byte %d" r.pos

let r_int_array r =
  let n = r_len r "array" in
  check_bulk r n;
  Array.init n (fun _ -> r_int r)

let r_float_array r =
  let n = r_len r "array" in
  check_bulk r n;
  Array.init n (fun _ -> r_float r)

let r_bool_array r =
  let n = r_len r "array" in
  check_bulk r n;
  Array.init n (fun _ -> r_bool r)

let r_list f r =
  let n = r_len r "list" in
  if remaining r < n then corrupt "truncated list at byte %d" r.pos;
  List.init n (fun _ -> f r)

let r_option f r =
  match r_int r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> corrupt "invalid option tag %d at byte %d" n (r.pos - 8)

(* FNV-1a 64-bit: tiny, dependency-free, and plenty to catch the bit rot
   and truncation a checkpoint file can suffer (not cryptographic). *)
let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h
