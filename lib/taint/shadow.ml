(* Shadow values for the dynamic-tainting baselines (Table 3).

   Taint is a bitset of source ids attached to every value.  Propagation
   is data-dependence only — the defining limitation of LIBDFT and
   TAINTGRIND the paper exploits: control dependences never propagate.
   Scalar operations delegate to the VM's {!Ldx_vm.Eval} (so the
   baselines compute exactly what the real VM computes) and re-attach
   taint per the model's propagation rule. *)

open Ldx_lang
module Value = Ldx_vm.Value

type t = { base : base; taint : int }

and base =
  | Unit
  | Int of int
  | Str of string
  | Arr of t array
  | Fptr of string

(* Shared clean boxes for small ints, mirroring [Value.int]: shadow
   arithmetic on untainted values (the overwhelmingly common case in the
   Table 3 workloads) reuses one box per value instead of allocating a
   record + Int block per operation. *)
let small_clean = Array.init 257 (fun i -> { base = Int (i - 1); taint = 0 })

let[@inline] with_taint taint base =
  match base with
  | Int n when taint = 0 && n >= -1 && n <= 255 ->
    Array.unsafe_get small_clean (n + 1)
  | _ -> { base; taint }

let clean base = with_taint 0 base

let truthy v =
  match v.base with
  | Int 0 | Unit | Str "" -> false
  | Int _ | Str _ | Arr _ | Fptr _ -> true

(* Arrays may be cyclic ([a[0] = a]).  An array conversion carries the
   arrays it is inside, each with its copy, so an array met again inside
   itself maps to its own copy: a cycle becomes a cycle.  Acyclic values
   convert as a plain element-by-element copy. *)
let copy_array inside conv dummy a =
  match List.assq_opt a inside with
  | Some c -> c
  | None ->
    let c = Array.make (Array.length a) dummy in
    let inside = (a, c) :: inside in
    Array.iteri (fun i x -> c.(i) <- conv inside x) a;
    c

let to_value (v : t) : Value.t =
  let rec go inside v =
    match v.base with
    | Unit -> Value.Unit
    | Int n -> Value.int n
    | Str s -> Value.Str s
    | Fptr f -> Value.Fptr f
    | Arr a -> Value.Arr (copy_array inside go Value.Unit a)
  in
  go [] v

let of_value ~taint (v : Value.t) : t =
  let rec go inside = function
    | Value.Unit -> with_taint taint Unit
    | Value.Int n -> with_taint taint (Int n)
    | Value.Str s -> with_taint taint (Str s)
    | Value.Fptr f -> with_taint taint (Fptr f)
    | Value.Arr a ->
      with_taint taint (Arr (copy_array inside go (clean Unit) a))
  in
  go [] v

let to_sval v = Value.to_sval_safe (to_value v)

let of_sval ~taint = function
  | Ldx_osim.Sval.I n -> with_taint taint (Int n)
  | Ldx_osim.Sval.S s -> with_taint taint (Str s)

(* Which model of library-call ("builtin") taint propagation: TaintGrind
   models every builtin; LibDFT drops taint across Names.libdft_unmodeled
   (the paper's observed modelling gap, Sec. 8.3). *)
type model = Taintgrind | Libdft

let model_to_string = function Taintgrind -> "taintgrind" | Libdft -> "libdft"

let union_taint args = List.fold_left (fun acc a -> acc lor a.taint) 0 args

let builtin_taint (model : model) (name : string) (args : t list) : int =
  match model with
  | Taintgrind -> union_taint args
  | Libdft -> if List.mem name Names.libdft_unmodeled then 0 else union_taint args

let apply_builtin (model : model) (name : string) (args : t list) : t =
  match (name, args) with
  (* array builtins operate on shadow arrays directly so element taint
     survives *)
  | "mkarray", [ { base = Int n; _ }; init ] ->
    if n < 0 || n > 1_000_000 then Value.trap "mkarray: bad size %d" n
    else clean (Arr (Array.make n init))
  | "len", [ { base = Arr a; taint } ] ->
    with_taint taint (Int (Array.length a))
  | _ ->
    let vals = List.map to_value args in
    let r = Ldx_vm.Eval.apply_builtin name vals in
    of_value ~taint:(builtin_taint model name args) r

(* Int/Int is the hot case; computing it directly skips two [to_value]
   and one [of_value] conversion per operation.  Semantics (including
   trap messages and the shift/truthiness edge cases) mirror
   {!Ldx_vm.Eval.apply_binop} exactly — the generic fallback below is
   the reference. *)
let apply_binop op a b =
  match (a.base, b.base) with
  | Int x, Int y ->
    let r =
      match (op : Ast.binop) with
      | Ast.Add -> x + y
      | Ast.Sub -> x - y
      | Ast.Mul -> x * y
      | Ast.Div -> if y = 0 then Value.trap "division by zero" else x / y
      | Ast.Mod -> if y = 0 then Value.trap "modulo by zero" else x mod y
      | Ast.Eq -> if x = y then 1 else 0
      | Ast.Ne -> if x <> y then 1 else 0
      | Ast.Lt -> if x < y then 1 else 0
      | Ast.Le -> if x <= y then 1 else 0
      | Ast.Gt -> if x > y then 1 else 0
      | Ast.Ge -> if x >= y then 1 else 0
      | Ast.Band -> x land y
      | Ast.Bor -> x lor y
      | Ast.Bxor -> x lxor y
      | Ast.Shl -> if y < 0 || y > 62 then 0 else x lsl y
      | Ast.Shr -> if y < 0 || y > 62 then 0 else x asr y
      | Ast.And -> if x <> 0 && y <> 0 then 1 else 0
      | Ast.Or -> if x <> 0 || y <> 0 then 1 else 0
    in
    with_taint (a.taint lor b.taint) (Int r)
  | _ ->
    let r = Ldx_vm.Eval.apply_binop op (to_value a) (to_value b) in
    of_value ~taint:(a.taint lor b.taint) r

let apply_unop op a =
  match (a.base, (op : Ast.unop)) with
  | Int x, Ast.Neg -> with_taint a.taint (Int (-x))
  | Int x, Ast.Not -> with_taint a.taint (Int (if x = 0 then 1 else 0))
  | _ ->
    let r = Ldx_vm.Eval.apply_unop op (to_value a) in
    of_value ~taint:a.taint r
