(** Runtime values of MiniC. *)

type t =
  | Unit
  | Int of int
  | Str of string
  | Arr of t array        (** shared, mutable — arrays alias across calls *)
  | Fptr of string
  | Tainted of t
      (** A value derived from a taint source: an [Int] or a [Str],
          never an array, a function pointer or another wrapper.  Only
          the taint tracker ({!Ldx_taint.Tracker}) creates it; the VM
          propagates it by data dependence: an operator's result is
          wrapped iff an operand is, [s[i]] takes the string's wrapper,
          [a[i]] yields the element as stored, branches and thread-op
          control arguments read through it. *)

(** Raised on dynamic type errors, out-of-bounds accesses, division by
    zero, arity mismatches and exhausted fuel. *)
exception Trap of string

(** [trap fmt ...] raises {!Trap} with a formatted message. *)
val trap : ('a, unit, string, 'b) format4 -> 'a

(** Physical-identity sentinel marking an uninitialized register slot in
    the flat VM (compare with [==] only).  Never a program value; a read
    of it traps with "undefined variable". *)
val undef : t

(** [int n] is [Int n], drawn from a table of shared boxes for small
    values ([-1..255]) so interpreter arithmetic stays allocation-free
    on the common range. *)
val int : int -> t

val is_tainted : t -> bool

(** [untaint v] is [v] without its {!Tainted} wrapper, if any. *)
val untaint : t -> t

(** Deep structural equality (arrays by contents), blind to {!Tainted}
    at every depth.  Terminates on cyclic and mutually referencing
    arrays: a pair of arrays met again while it is being compared
    counts as equal. *)
val equal : t -> t -> bool

(** C-like truthiness: [0], [Unit] and [""] are false. *)
val truthy : t -> bool

(** Printed form, blind to {!Tainted}. *)
val to_string : t -> string

(** Conversion at the syscall boundary.
    @raise Trap on arrays (they never cross into the OS). *)
val to_sval : t -> Ldx_osim.Sval.t

val of_sval : Ldx_osim.Sval.t -> t

(** Total variant for tracing/comparison: arrays map to an opaque
    length-tagged token. *)
val to_sval_safe : t -> Ldx_osim.Sval.t
