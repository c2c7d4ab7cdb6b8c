(** Static well-formedness checks run before lowering.

    Ensures: a [main] entry exists and takes no parameters; no duplicate
    functions or parameters; builtin/syscall/user-call arities match;
    variables are defined before use; [break]/[continue] appear only
    inside loops; reserved names are not shadowed. *)

type diagnostic = { func : string; message : string }

(** All diagnostics for the program, in source order; empty = well formed. *)
val check_program : Ast.program -> diagnostic list

(** @raise Failure with all diagnostics when the program is ill-formed. *)
val check_exn : Ast.program -> unit
