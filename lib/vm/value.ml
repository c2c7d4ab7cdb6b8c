(* Runtime values of MiniC. *)

module Sval = Ldx_osim.Sval

type t =
  | Unit
  | Int of int
  | Str of string
  | Arr of t array                      (* shared, mutable *)
  | Fptr of string
  | Tainted of t
  (* Last, so the other constructors keep their tags and snapshot
     payloads their bytes.  Only the taint tracker creates it. *)

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

let is_tainted = function Tainted _ -> true | _ -> false
let untaint = function Tainted v -> v | v -> v

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
    | _ -> (
        match (a, b) with
        | Tainted a, b | a, Tainted b -> eq seen a b
        | _ -> false)
  in
  eq [] a b

(* Every branch calls [truthy].  Matched [Int] and [Str] first, with
   one default arm, it compiles to two tag compares; an exhaustive match
   over all six constructors compiles to a jump table, which costs
   every branch (DESIGN.md, "Taint baselines"). *)
let[@inline never] truthy_rare v =
  match untaint v with Int 0 | Unit | Str "" -> false | _ -> true

let truthy = function
  | Int 0 -> false
  | Int _ -> true
  | Str "" -> false
  | Str _ -> true
  | v -> truthy_rare v

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
    | Tainted v -> go inside v
  in
  go [] v

(* Conversion at the syscall boundary. *)
let rec to_sval = function
  | Int n -> Sval.I n
  | Str s -> Sval.S s
  | Unit -> Sval.I 0
  | Fptr f -> Sval.S ("@" ^ f)
  | Arr _ -> trap "array passed to syscall"
  | Tainted v -> to_sval v

let of_sval = function Sval.I n -> Int n | Sval.S s -> Str s

(* Total conversion for tracing/comparison: arrays (which only thread ops
   like [spawn] may carry) map to an opaque length-tagged token. *)
let rec to_sval_safe = function
  | Arr a -> Sval.S (Printf.sprintf "<arr:%d>" (Array.length a))
  | Tainted v -> to_sval_safe v
  | (Int _ | Str _ | Unit | Fptr _) as v -> to_sval v
