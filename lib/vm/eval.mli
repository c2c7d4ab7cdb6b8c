(** Pure-expression evaluation: the [pexpr] fragment of the IR (no calls
    except builtins).  Operators propagate {!Value.Tainted} by data
    dependence (see {!Value.t}); builtins leave that to the [builtin]
    a program is compiled with. *)

(** Stable polynomial string hash (compiler-version independent). *)
val string_hash : string -> int

(** Apply a builtin ([itoa], [substr], [mkarray], ...) to unwrapped
    arguments.
    @raise Value.Trap on bad arguments. *)
val apply_builtin : string -> Value.t list -> Value.t

(** @raise Value.Trap on ill-typed operands or division by zero. *)
val apply_binop : Ldx_lang.Ast.binop -> Value.t -> Value.t -> Value.t

val apply_unop : Ldx_lang.Ast.unop -> Value.t -> Value.t

(** Evaluate a pure expression over register-file storage, resolving
    names through the flat symbol table: a direct walk of the source
    expression, the reference {!compile_flat} is tested against.
    Unknown names and slots holding {!Value.undef} trap as undefined
    variables.
    @raise Value.Trap on undefined variables or dynamic type errors. *)
val eval_reg :
  (string, int) Hashtbl.t -> Value.t array -> Ldx_lang.Ast.expr -> Value.t

(** Closure form of a flat expression: evaluates against a register
    file. *)
type code = Value.t array -> Value.t

(** Compile a flat expression ({!Ldx_cfg.Flat}) to a closure, once, at
    [Flat.compile] time.  [names] maps slots to source names for trap
    messages; builtin calls go to [builtin] (default {!apply_builtin}).
    With the default, the closure returns what {!eval_reg} returns on
    the source expression, or raises the same trap: operands evaluate
    left to right, and slots holding {!Value.undef} trap as undefined
    variables before the operator runs.  Two-int [+ - *] and
    comparisons take an inline fast path; every other operand shape
    goes through {!apply_binop}, {!apply_unop}, {!apply_builtin} or the
    indexing rules of {!eval_reg}. *)
val compile_flat :
  ?builtin:(string -> Value.t list -> Value.t) -> string array ->
  Value.t Ldx_cfg.Flat.fexpr -> code

(** Evaluate compiled arguments left to right. *)
val eval_args : code array -> Value.t array -> Value.t list
