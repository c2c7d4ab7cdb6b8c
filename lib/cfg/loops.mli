(** Natural-loop detection.

    A back edge is [t -> h] where [h] dominates [t]; the natural loop of
    [h] is [h] plus everything that reaches a back-edge tail without
    passing through [h].  Loops sharing a header are merged, which is the
    granularity Algorithm 3 instruments: one barrier set and one reset
    value per header. *)

module IntSet :
  Set.S with type elt = int and type t = Set.Make(Int).t

type loop = {
  header : int;
  body : IntSet.t;            (** includes the header *)
  back_tails : int list;      (** tails of the back edges into the header *)
  exits : (int * int) list;   (** edges [(x, n)]: [x] in body, [n] outside *)
}

type t = {
  loops : loop list;
  loop_of_header : (int, loop) Hashtbl.t;
}

val detect : Ir.func -> t

(** Structured lowering always yields reducible CFGs; the instrumenter
    asserts this before trusting the loop decomposition. *)
val is_reducible : Ir.func -> t -> bool
