(** Source mutation strategies (Sec. 8.3, "Input Mutation").

    The slave observes mutated values at configured source syscalls.  The
    paper's default, off-by-one on data fields, provably witnesses every
    strong (one-to-one) causality; the other strategies exist for the
    mutation-strategy study. *)

type strategy =
  | Off_by_one
      (** ints: +1; strings: every alphanumeric byte bumped, cycling
          within its class ('9'->'0', 'z'->'a') — data fields mutated,
          separators and structure preserved *)
  | Bitflip        (** flip bit 0 of ints / of the first byte *)
  | Zero           (** zero ints; blank the first byte of strings *)
  | Add_constant of int
  | Random_replace of int  (** seeded pseudo-random replacement *)
  | Swap_substring of string * string
      (** replace the first occurrence — targeted semantic mutations
          such as flipping NGX_HAVE_POLL from 1 to 0 (Fig. 7) *)

(** The strategies of the mutation study, with display names. *)
val all_strategies : (string * strategy) list

(** The off-by-one character map (exposed for property tests). *)
val bump_alnum : char -> char

(** Mutate a syscall result.  The empty string (EOF / closed connection)
    is never touched: fabricating bytes there would turn input loops into
    infinite streams in the slave. *)
val mutate : strategy -> Ldx_osim.Sval.t -> Ldx_osim.Sval.t
