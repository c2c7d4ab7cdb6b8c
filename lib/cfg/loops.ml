(* Natural-loop detection.

   A back edge is t -> h where h dominates t.  The natural loop of h is
   the union, over its back edges, of h plus all blocks that can reach a
   back-edge tail without passing through h.  Loops sharing a header are
   merged (standard), which is what Algorithm 3 needs: one barrier set and
   one reset value per header. *)

module IntSet = Set.Make (Int)

type loop = {
  header : int;
  body : IntSet.t;            (* includes the header *)
  back_tails : int list;      (* tails of the back edges into header *)
  exits : (int * int) list;   (* edges (x, n): x in body, n outside *)
}

type t = {
  loops : loop list;          (* innermost-last order not guaranteed *)
  loop_of_header : (int, loop) Hashtbl.t;
}

(* The flood fill marks the body in [inside], a per-function scratch array
   that is cleared again before returning; the exit scan tests membership
   there instead of in the set. *)
let natural_loop (f : Ir.func) preds inside header tails =
  inside.(header) <- true;
  let rec add acc b =
    if inside.(b) then acc
    else begin
      inside.(b) <- true;
      List.fold_left add (b :: acc) preds.(b)
    end
  in
  let blocks = List.fold_left add [ header ] tails in
  let body = IntSet.of_list blocks in
  let exits =
    IntSet.fold
      (fun b acc ->
         Ir.fold_successors
           (fun s acc -> if inside.(s) then acc else (b, s) :: acc)
           f.blocks.(b).Ir.term acc)
      body []
  in
  List.iter (fun b -> inside.(b) <- false) blocks;
  { header; body; back_tails = tails; exits = List.rev exits }

let detect (f : Ir.func) : t =
  let preds = Ir.predecessors f in
  let doms = Dominators.compute_with_preds f preds in
  (* collect back edges grouped by header *)
  let by_header = Hashtbl.create 8 in
  Array.iter
    (fun (b : Ir.block) ->
       if doms.Dominators.rpo_index.(b.Ir.bid) <> -1 then
         Ir.iter_successors
           (fun s ->
              if Dominators.dominates doms s b.Ir.bid then
                Hashtbl.replace by_header s
                  (b.Ir.bid :: (try Hashtbl.find by_header s with Not_found -> [])))
           b.Ir.term)
    f.blocks;
  let inside = Array.make (Array.length f.blocks) false in
  let loops =
    Hashtbl.fold
      (fun header tails acc -> natural_loop f preds inside header tails :: acc)
      by_header []
  in
  let loop_of_header = Hashtbl.create 8 in
  List.iter (fun l -> Hashtbl.replace loop_of_header l.header l) loops;
  { loops; loop_of_header }

(* Is the CFG reducible?  With our structured lowering it always is; the
   instrumenter asserts this.  A CFG is irreducible iff some cycle has no
   back edge to a dominating header, i.e. removing all back edges leaves a
   cycle. *)
let is_reducible (f : Ir.func) (t : t) : bool =
  let n = Array.length f.blocks in
  (* the headers each block has a back edge to *)
  let back = Array.make n [] in
  List.iter
    (fun l ->
       List.iter (fun b -> back.(b) <- l.header :: back.(b)) l.back_tails)
    t.loops;
  let is_back b s = List.exists (fun h -> h = s) back.(b) in
  (* Kahn's algorithm on the graph minus back edges *)
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  Array.iter
    (fun (b : Ir.block) ->
       List.iter
         (fun s ->
            if not (is_back b.Ir.bid s) then begin
              succs.(b.Ir.bid) <- s :: succs.(b.Ir.bid);
              indeg.(s) <- indeg.(s) + 1
            end)
         (Ir.successors b.Ir.term))
    f.blocks;
  let queue = ref [] in
  for b = 0 to n - 1 do
    if indeg.(b) = 0 then queue := b :: !queue
  done;
  let seen = ref 0 in
  while !queue <> [] do
    match !queue with
    | [] -> ()
    | b :: rest ->
      queue := rest;
      incr seen;
      List.iter
        (fun s ->
           indeg.(s) <- indeg.(s) - 1;
           if indeg.(s) = 0 then queue := s :: !queue)
        succs.(b)
  done;
  !seen = n
