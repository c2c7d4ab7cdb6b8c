(** Graphviz export of function CFGs with loop annotations — for
    debugging instrumentation. *)

(** One function as a standalone digraph. *)
val func_to_dot : Ir.func -> string

(** The whole program, one cluster per function. *)
val program_to_dot : Ir.program -> string
