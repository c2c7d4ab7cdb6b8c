(** Reserved call names: pure builtins and (simulated) syscalls.

    MiniC has no extern declarations; a fixed set of names is reserved.
    The CFG lowering classifies every call through this module. *)

(** Arity constraint of a reserved name. *)
type arity = Exact of int | At_least of int

(** Pure builtins with their arities ([itoa], [substr], [mkarray], ...). *)
val builtins : (string * arity) list

(** Builtins whose taint propagation the LibDFT-like baseline mismodels
    (result taint dropped), per the paper's Sec. 8.3 observation. *)
val libdft_unmodeled : string list

(** Side-effecting syscalls serviced by the simulated OS (or, for thread
    operations / signals / setjmp, by the VM), each counted by the
    alignment counter. *)
val syscalls : (string * arity) list

(** The class of a reserved name, with its arity; [None] for a name that
    is neither a builtin nor a syscall. *)
type kind = Builtin of arity | Syscall of arity

val kind : string -> kind option

(** [arity_matches a n] holds when [n] arguments satisfy constraint [a]. *)
val arity_matches : arity -> int -> bool

(** Is this an output-related syscall ([write], [send], [print],
    [malloc], [retaddr])?  The default sink candidates. *)
val is_output_syscall : string -> bool

(** A name is reserved when it is a builtin or a syscall; user functions
    and variables may not shadow it. *)
val reserved : string -> bool
