(* Runtime values of MiniC. *)

module Sval = Ldx_osim.Sval

type t =
  | Unit
  | Int of int
  | Str of string
  | Arr of t array                      (* shared, mutable *)
  | Fptr of string

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* Physical-identity sentinel for uninitialized register slots (the flat
   VM's stand-in for "name absent from the locals table").  The [Arr]
   block here is a unique allocation, so [v == undef] can never be true
   of a program-constructed value — including [mkarray(0, _)], whose
   [Arr] constructor block is fresh even though zero-length arrays
   themselves are shared atoms.  Never expose it to programs. *)
let undef = Arr [||]

(* Shared boxes for common ints.  Interpreter arithmetic results land in
   [-1, 255] most of the time (loop counters, comparison results, flags);
   returning one shared box per value keeps the hot loops allocation-free.
   Safe because values are immutable. *)
let small_ints = Array.init 257 (fun i -> Int (i - 1))

let[@inline] int n =
  if n >= -1 && n <= 255 then Array.unsafe_get small_ints (n + 1) else Int n

(* Structural equality.  Arrays may be cyclic ([a[0] = a]) or refer to
   each other, so the walk keeps the pairs of arrays under comparison
   and counts a pair it meets again as equal: any difference between
   them shows up along another path.  Physically equal arrays are equal
   outright.  On acyclic values this is plain structural equality. *)
let equal a b =
  let rec eq seen a b =
    match (a, b) with
    | Unit, Unit -> true
    | Int x, Int y -> x = y
    | Str x, Str y -> String.equal x y
    | Fptr x, Fptr y -> String.equal x y
    | Arr x, Arr y ->
      x == y
      || Array.length x = Array.length y
         && (List.exists (fun (x', y') -> x' == x && y' == y) seen
             ||
             let seen = (x, y) :: seen in
             let rec elems i =
               i = Array.length x || (eq seen x.(i) y.(i) && elems (i + 1))
             in
             elems 0)
    | (Unit | Int _ | Str _ | Arr _ | Fptr _), _ -> false
  in
  eq [] a b

let truthy = function
  | Int 0 | Unit -> false
  | Str "" -> false
  | Int _ | Str _ | Arr _ | Fptr _ -> true

let int_exn = function
  | Int n -> n
  | v -> trap "expected int, got %s" (match v with
      | Str _ -> "string" | Arr _ -> "array" | Fptr _ -> "funptr"
      | Unit -> "unit" | Int _ -> assert false)

let str_exn = function
  | Str s -> s
  | Int _ | Arr _ | Fptr _ | Unit -> trap "expected string"

(* An array met again inside itself ([a[0] = a]) prints as [[...]]. *)
let to_string v =
  let rec go inside = function
    | Unit -> "()"
    | Int n -> string_of_int n
    | Str s -> Printf.sprintf "%S" s
    | Fptr f -> "@" ^ f
    | Arr a when List.memq a inside -> "[...]"
    | Arr a ->
      let inside = a :: inside in
      "[" ^ String.concat "; " (Array.to_list (Array.map (go inside) a)) ^ "]"
  in
  go [] v

(* Conversion at the syscall boundary. *)
let to_sval = function
  | Int n -> Sval.I n
  | Str s -> Sval.S s
  | Unit -> Sval.I 0
  | Fptr f -> Sval.S ("@" ^ f)
  | Arr _ -> trap "array passed to syscall"

let of_sval = function Sval.I n -> Int n | Sval.S s -> Str s

(* Total conversion for tracing/comparison: arrays (which only thread ops
   like [spawn] may carry) map to an opaque length-tagged token. *)
let to_sval_safe = function
  | Arr a -> Sval.S (Printf.sprintf "<arr:%d>" (Array.length a))
  | (Int _ | Str _ | Unit | Fptr _) as v -> to_sval v
