(* Call graph over direct calls, with Tarjan SCCs.

   INSTRUMENTPROG (Algorithm 1) walks functions in reverse topological
   order of the call graph so FCNT of callees is known; recursive
   functions (non-trivial SCCs or self loops) are excluded from that
   scheme and handled with the counter stack (Sec. 5/6). *)

module StrSet = Set.Make (String)

type t = {
  recursive : StrSet.t;                         (* funcs in cycles *)
  order : string list;                          (* callees-before-callers *)
}

let direct_callees (f : Ir.func) : StrSet.t =
  let acc = ref StrSet.empty in
  Array.iter
    (fun (b : Ir.block) ->
       Array.iter
         (fun i ->
            match i with
            | Ir.Call { callee; _ } -> acc := StrSet.add callee !acc
            | Ir.Call_indirect _ | Ir.Syscall _ | Ir.Assign _ | Ir.Store _
            | Ir.Cnt_add _ | Ir.Loop_enter _ | Ir.Loop_back _ | Ir.Loop_exit _ ->
              ())
         b.Ir.instrs)
    f.blocks;
  !acc

(* Tarjan's strongly connected components over node positions, with
   arrays for the per-node state; emits SCCs in reverse topological order
   (callees before callers). *)
let tarjan (names : string array) (succs : int -> int list) : string list list =
  let n = Array.length names in
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
         if index.(w) < 0 then begin
           strongconnect w;
           lowlink.(v) <- Int.min lowlink.(v) lowlink.(w)
         end
         else if on_stack.(w) then lowlink.(v) <- Int.min lowlink.(v) index.(w))
      (succs v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then names.(w) :: acc else pop (names.(w) :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* Tarjan produces SCCs in reverse topological order of the condensation
     when collected in emission order. *)
  List.rev !sccs

let compute (p : Ir.program) : t =
  (* each function name once, in program order, with its position *)
  let pos = Hashtbl.create 16 and names = ref [] in
  Array.iter
    (fun (f : Ir.func) ->
       if not (Hashtbl.mem pos f.Ir.fname) then begin
         Hashtbl.add pos f.Ir.fname (Hashtbl.length pos);
         names := f.Ir.fname :: !names
       end)
    p.funcs;
  let names = Array.of_list (List.rev !names) in
  let callees = Hashtbl.create 16 in
  Array.iter
    (fun (f : Ir.func) ->
       Hashtbl.replace callees f.Ir.fname
         (StrSet.filter (Hashtbl.mem pos) (direct_callees f)))
    p.funcs;
  let succs v = try Hashtbl.find callees v with Not_found -> StrSet.empty in
  let sccs =
    tarjan names (fun i ->
        List.rev
          (StrSet.fold (fun c acc -> Hashtbl.find pos c :: acc)
             (succs names.(i)) []))
  in
  let recursive =
    List.fold_left
      (fun acc scc ->
         match scc with
         | [ v ] ->
           if StrSet.mem v (succs v) then StrSet.add v acc else acc
         | vs -> List.fold_left (fun a v -> StrSet.add v a) acc vs)
      StrSet.empty sccs
  in
  let order = List.concat sccs in
  { recursive; order }

let is_recursive t name = StrSet.mem name t.recursive
