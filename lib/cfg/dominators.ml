(* Dominator computation (Cooper-Harvey-Kennedy iterative algorithm).

   Needed to identify back edges and natural loops for Algorithm 3. *)

type t = {
  idom : int array;          (* immediate dominator; idom.(entry) = entry;
                                -1 for unreachable blocks *)
  rpo_index : int array;     (* position in reverse postorder; -1 if unreachable *)
}

let compute_with_preds (f : Ir.func) (preds : int list array) : t =
  let n = Array.length f.blocks in
  let rpo = Ir.reverse_postorder f in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(f.entry) <- f.entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  (* Folds over the predecessors that already have a dominator, in list
     order.  Only reachable blocks ever get one, so the same test leaves
     out unreachable predecessors. *)
  let meet acc p =
    if idom.(p) = -1 then acc else if acc = -1 then p else intersect acc p
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
         if b <> f.entry then begin
           let new_idom = List.fold_left meet (-1) preds.(b) in
           if new_idom <> -1 && idom.(b) <> new_idom then begin
             idom.(b) <- new_idom;
             changed := true
           end
         end)
      rpo
  done;
  { idom; rpo_index }

let compute f = compute_with_preds f (Ir.predecessors f)

(* Does [a] dominate [b]?  (Reflexive.)  Dominators precede the blocks
   they dominate in reverse postorder, so the walk up the dominator tree
   stops as soon as it passes [a]'s position: a forward edge is decided
   at once, not by walking to the entry. *)
let dominates (d : t) a b =
  let ra = d.rpo_index.(a) in
  let rec up x = x = a || (d.rpo_index.(x) > ra && up d.idom.(x)) in
  d.idom.(b) <> -1 && ra <> -1 && up b
