(** Dominator computation (Cooper-Harvey-Kennedy iterative algorithm),
    used to identify back edges and natural loops for Algorithm 3. *)

type t = {
  idom : int array;
      (** immediate dominator per block; [idom.(entry) = entry]; [-1] for
          unreachable blocks *)
  rpo_index : int array;
      (** position in reverse postorder; [-1] if unreachable *)
}

val compute : Ir.func -> t

(** [compute] given the function's {!Ir.predecessors}, for a caller that
    needs them too. *)
val compute_with_preds : Ir.func -> int list array -> t

(** [dominates d a b] — does [a] dominate [b]?  Reflexive; [false] when
    [b] is unreachable. *)
val dominates : t -> int -> int -> bool
