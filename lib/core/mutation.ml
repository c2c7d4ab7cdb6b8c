(* Source mutation strategies (Sec. 8.3, "Input Mutation").

   The slave observes mutated values at configured source syscalls.  The
   paper's default is off-by-one on data fields, which provably detects
   any strong (one-to-one) causality; the other strategies exist for the
   mutation-strategy study. *)

module Sval = Ldx_osim.Sval

type strategy =
  | Off_by_one
  | Bitflip                      (* flip bit 0 of ints / of first byte *)
  | Zero                         (* zero ints, empty first byte of strings *)
  | Add_constant of int
  | Random_replace of int        (* seeded pseudo-random replacement *)
  | Swap_substring of string * string
      (* replace the first occurrence of a substring: semantic mutations
         like flipping NGX_HAVE_POLL from 1 to 0 in the Fig. 7 study *)

let all_strategies =
  [ ("off-by-one", Off_by_one);
    ("bitflip", Bitflip);
    ("zero", Zero);
    ("add-100", Add_constant 100);
    ("random", Random_replace 12345) ]

let bump_char c delta =
  (* stay within printable ASCII so string-typed protocol fields remain
     parseable (the paper avoids "magic values or structure") *)
  let lo = 32 and hi = 126 in
  let v = Char.code c in
  if v < lo || v > hi then Char.chr ((v + delta) land 255)
  else Char.chr (lo + ((v - lo + delta) mod (hi - lo + 1) + (hi - lo + 1)) mod (hi - lo + 1))

(* The empty string is EOF / connection-closed, not data: fabricating
   bytes there would turn every input loop into an infinite stream in the
   slave.  Mutations leave it untouched. *)
let mutate_string ~f s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set b 0 (f s.[0]);
    Bytes.to_string b
  end

(* Off-by-one over a string value bumps every alphanumeric byte, cycling
   within its class ('9'->'0', 'z'->'a', 'Z'->'A').  This is the paper's
   "mutate the data fields, not magic values or structure": separators,
   newlines and punctuation are left intact so the input still parses,
   while every data field the value carries is off by one. *)
let bump_alnum c =
  if c >= '0' && c <= '9' then if c = '9' then '0' else Char.chr (Char.code c + 1)
  else if c >= 'a' && c <= 'z' then
    if c = 'z' then 'a' else Char.chr (Char.code c + 1)
  else if c >= 'A' && c <= 'Z' then
    if c = 'Z' then 'A' else Char.chr (Char.code c + 1)
  else c

let mutate_alnum s = String.map bump_alnum s

let mutate (strategy : strategy) (v : Sval.t) : Sval.t =
  match (strategy, v) with
  | Off_by_one, Sval.I n -> Sval.I (n + 1)
  | Off_by_one, Sval.S s -> Sval.S (mutate_alnum s)
  | Bitflip, Sval.I n -> Sval.I (n lxor 1)
  | Bitflip, Sval.S s ->
    Sval.S (mutate_string ~f:(fun c -> Char.chr (Char.code c lxor 1)) s)
  | Zero, Sval.I _ -> Sval.I 0
  | Zero, Sval.S s -> Sval.S (mutate_string ~f:(fun _ -> ' ') s)
  | Add_constant k, Sval.I n -> Sval.I (n + k)
  | Add_constant k, Sval.S s ->
    Sval.S (mutate_string ~f:(fun c -> bump_char c k) s)
  | Random_replace seed, Sval.I n ->
    Sval.I ((n lxor (seed * 2654435761)) land 0xFFFF)
  | Random_replace seed, Sval.S s ->
    Sval.S
      (mutate_string
         ~f:(fun c -> bump_char c (1 + ((seed lxor Char.code c) land 63)))
         s)
  | Swap_substring (_, _), Sval.I n -> Sval.I (n + 1)
  | Swap_substring (old_s, new_s), Sval.S s ->
    let sn = String.length s and on = String.length old_s in
    let rec at i =
      if on = 0 || i + on > sn then None
      else if String.sub s i on = old_s then Some i
      else at (i + 1)
    in
    (match at 0 with
     | None -> Sval.S s
     | Some i ->
       Sval.S
         (String.sub s 0 i ^ new_s
          ^ String.sub s (i + on) (sn - i - on)))
