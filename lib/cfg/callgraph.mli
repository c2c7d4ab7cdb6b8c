(** Call graph over direct calls, with Tarjan SCCs.

    INSTRUMENTPROG (Algorithm 1) walks functions callees-first so FCNT of
    callees is known; functions on call-graph cycles are flagged
    recursive and handled with the counter stack instead (Sec. 6). *)

module StrSet : Set.S with type elt = string

type t = {
  recursive : StrSet.t;                    (** functions on cycles *)
  order : string list;                     (** flattened SCCs, callees first *)
}

(** Direct callees of a function that are user functions (builtins and
    syscalls excluded by the caller). *)
val direct_callees : Ir.func -> StrSet.t

val compute : Ir.program -> t
val is_recursive : t -> string -> bool
