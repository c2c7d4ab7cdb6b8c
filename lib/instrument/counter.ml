(* Counter instrumentation: Algorithms 1 and 3 of the paper.

   For every function we compute, per block b, [cnt_in b] = the maximum
   number of counter increments (syscalls, +1-per fresh-frame call, FCNT
   of direct calls) along any path entry -> b in the loop-collapsed CFG,
   and insert compensation code on edges so that at runtime the counter
   at b equals [cnt_in b] on EVERY path.  Loops get an iteration barrier
   and a counter reset on back edges, and a bump on exit edges, so that
   the counter is bounded inside a loop and post-loop values dominate
   in-loop values (Sec. 5).  Calls to recursive functions and indirect
   calls save/reset the counter (a fresh counter-stack segment) and
   contribute a fixed +1 (Sec. 6). *)

module Ir = Ldx_cfg.Ir
module Loops = Ldx_cfg.Loops
module Callgraph = Ldx_cfg.Callgraph
module IntSet = Set.Make (Int)
module StrMap = Map.Make (String)

type config = {
  instrument_inactive_loops : bool;
  (* Instrument loops with no syscall activity too (paper skips them:
     "we only need to instrument loops that include syscalls"). *)
  loop_reset : bool;
  (* Reset the counter on back edges (Algorithm 3).  Disabling this is
     ablation A2: counters grow with iteration counts and post-loop
     alignment breaks whenever trip counts differ. *)
}

let default_config = { instrument_inactive_loops = false; loop_reset = true }

type func_stats = {
  fname : string;
  fcnt : int;                       (* counter increment along any path *)
  max_cnt : int;                    (* max cnt value inside the function *)
  loops_total : int;
  loops_instrumented : int;
  added_instrs : int;               (* instrumentation instructions added *)
}

type stats = {
  per_func : func_stats list;
  recursive_funcs : int;
  indirect_sites : int;
  fresh_call_sites : int;           (* direct calls rewritten to fresh-frame *)
  syscall_sites : int;
  instrs_before : int;
  instrs_added : int;
  loops_instrumented : int;
  max_static_cnt : int;             (* max over funcs, main's includes callees *)
}

(* ------------------------------------------------------------------ *)
(* Per-block counter increment.                                        *)

let block_increment (fcnts : int StrMap.t) (b : Ir.block) =
  Array.fold_left
    (fun acc i ->
       match i with
       | Ir.Syscall _ -> acc + 1
       | Ir.Call { callee; fresh_frame; _ } ->
         if fresh_frame then acc + 1
         else acc + (try StrMap.find callee fcnts with Not_found -> 0)
       | Ir.Call_indirect _ -> acc + 1
       | Ir.Assign _ | Ir.Store _ | Ir.Cnt_add _ | Ir.Loop_enter _
       | Ir.Loop_back _ | Ir.Loop_exit _ -> acc)
    0 b.Ir.instrs

(* ------------------------------------------------------------------ *)
(* Edge classification.                                                *)

type edge_class = {
  src : int;
  dst : int;
  back_of : Loops.loop option;       (* t -> h back edge *)
  pops : Loops.loop list;            (* loops exited, innermost first *)
  enters : Loops.loop option;        (* loop entered (dst is its header) *)
}

let classify_edges (f : Ir.func) (ld : Loops.t) : edge_class list =
  let n = Array.length f.blocks in
  (* the loop headed at each block, and each block's enclosing loops
     innermost first: sorted once by body size (stably, so loops of equal
     size keep their order in [ld.loops]), not per edge *)
  let head = Array.make n None in
  List.iter (fun (l : Loops.loop) -> head.(l.Loops.header) <- Some l)
    ld.Loops.loops;
  let enclosing = Array.make n [] in
  List.stable_sort
    (fun (a : Loops.loop) (b : Loops.loop) ->
       compare (IntSet.cardinal a.Loops.body) (IntSet.cardinal b.Loops.body))
    ld.Loops.loops
  |> List.rev
  |> List.iter (fun (l : Loops.loop) ->
      IntSet.iter (fun b -> enclosing.(b) <- l :: enclosing.(b)) l.Loops.body);
  let edge src s =
    match head.(s) with
    | Some l when List.exists (fun t -> t = src) l.Loops.back_tails ->
      { src; dst = s; back_of = Some l; pops = []; enters = None }
    | h ->
      let pops =
        match enclosing.(src) with
        | [] -> []
        | ls -> List.filter (fun l -> not (List.memq l enclosing.(s))) ls
      in
      let enters =
        match h with
        | Some l when not (List.memq l enclosing.(src)) -> Some l
        | _ -> None
      in
      { src; dst = s; back_of = None; pops; enters }
  in
  (* built from the last block back, so the list comes out in order *)
  Array.fold_right
    (fun (b : Ir.block) acc ->
       match b.Ir.term with
       | Ir.Jump l -> edge b.Ir.bid l :: acc
       | Ir.Branch (_, t, e) when t = e -> edge b.Ir.bid t :: acc
       | Ir.Branch (_, t, e) -> edge b.Ir.bid t :: edge b.Ir.bid e :: acc
       | Ir.Ret _ -> acc)
    f.blocks []

(* ------------------------------------------------------------------ *)
(* Static counter values on the loop-collapsed (acyclic) graph.        *)

(* Returns cnt_in : int array.  The acyclic graph is: all edges except
   back edges, plus dummy edges t -> n for every popped loop's back-edge
   tails t, for each exit edge (x, n).  Exit edges themselves remain
   (they already play the role of a dummy edge x -> n). *)
let compute_cnt (f : Ir.func) (edges : edge_class list) (inc : int array) :
  int array =
  let n = Array.length f.blocks in
  let succs = Array.make n [] and indeg = Array.make n 0 in
  let add_edge a b =
    succs.(a) <- b :: succs.(a);
    indeg.(b) <- indeg.(b) + 1
  in
  List.iter
    (fun e ->
       match e.back_of, e.pops with
       | Some _, _ -> ()                     (* drop back edges *)
       | None, [] -> add_edge e.src e.dst
       | None, pops ->
         add_edge e.src e.dst;
         List.iter
           (fun (l : Loops.loop) ->
              List.iter (fun t -> add_edge t e.dst) l.Loops.back_tails)
           pops)
    edges;
  (* Kahn topological order; each block is enqueued once, so an array is
     the FIFO *)
  let queue = Array.make n 0 and tail = ref 0 in
  let push b = queue.(!tail) <- b; incr tail in
  for b = 0 to n - 1 do
    if indeg.(b) = 0 then push b
  done;
  let cnt_in = Array.make n 0 in
  let rec relax out = function
    | [] -> ()
    | s :: rest ->
      if out > cnt_in.(s) then cnt_in.(s) <- out;
      indeg.(s) <- indeg.(s) - 1;
      if indeg.(s) = 0 then push s;
      relax out rest
  in
  let seen = ref 0 in
  while !seen < !tail do
    let b = queue.(!seen) in
    incr seen;
    relax (cnt_in.(b) + inc.(b)) succs.(b)
  done;
  if !seen <> n then
    failwith
      (Printf.sprintf
         "Counter.compute_cnt: irreducible CFG in %s (cycle without back edge)"
         f.Ir.fname);
  cnt_in

(* ------------------------------------------------------------------ *)
(* Rewriting: attach instrumentation instruction lists to edges, then   *)
(* materialize them (append to src, prepend to dst, or split).          *)

type patch = {
  e : edge_class;
  code : Ir.instr list;
}

(* Edge code goes at the end of a single-successor source, at the start
   of a single-predecessor destination, or else into a new block.  Each
   block's patches and splits live in arrays indexed by block id. *)
let materialize (f : Ir.func) (patches : patch list) : Ir.func * int =
  let n = Array.length f.blocks in
  let out_degree = Array.make n 0 and in_degree = Array.make n 0 in
  let enter s = in_degree.(s) <- in_degree.(s) + 1 in
  Array.iter
    (fun (b : Ir.block) ->
       out_degree.(b.Ir.bid) <-
         Ir.fold_successors (fun _ k -> k + 1) b.Ir.term 0;
       Ir.iter_successors enter b.Ir.term)
    f.blocks;
  let added = ref 0 in
  let appends = Array.make n [] in     (* bid -> instr list to append *)
  let prepends = Array.make n [] in    (* bid -> instr list to prepend *)
  let splits = Array.make n [] in      (* src -> (dst, code) for a new block *)
  List.iter
    (fun p ->
       match p.code with
       | [] -> ()
       | code ->
         added := !added + List.length code;
         let src = p.e.src and dst = p.e.dst in
         if out_degree.(src) = 1 then appends.(src) <- appends.(src) @ code
         else if in_degree.(dst) = 1 then
           prepends.(dst) <- prepends.(dst) @ code
         else splits.(src) <- (dst, code) :: splits.(src))
    patches;
  let new_blocks = ref [] in
  let next_bid = ref n in
  let retarget src term =
    (* replace edge src->dst with src->fresh for each split on src *)
    let for_dst dst =
      match List.assoc_opt dst splits.(src) with
      | None -> dst
      | Some code ->
        let bid = !next_bid in
        incr next_bid;
        new_blocks :=
          { Ir.bid; instrs = Array.of_list code; term = Ir.Jump dst }
          :: !new_blocks;
        bid
    in
    match term, splits.(src) with
    | _, [] -> term
    | Ir.Jump l, _ -> Ir.Jump (for_dst l)
    | Ir.Branch (c, t, e), _ ->
      (* NB: if t = e both go to the same dst; a single split block works *)
      let t' = for_dst t in
      let e' = if e = t then t' else for_dst e in
      Ir.Branch (c, t', e')
    | (Ir.Ret _ as r), _ -> r
  in
  (* a block without patches or splits is kept as it is *)
  let rewritten =
    Array.map
      (fun (b : Ir.block) ->
         match prepends.(b.Ir.bid), appends.(b.Ir.bid), splits.(b.Ir.bid) with
         | [], [], [] -> b
         | pre, post, _ ->
           let instrs =
             match pre, post with
             | [], [] -> b.Ir.instrs
             | _ ->
               Array.concat
                 [ Array.of_list pre; b.Ir.instrs; Array.of_list post ]
           in
           { b with Ir.instrs; term = retarget b.Ir.bid b.Ir.term })
      f.blocks
  in
  let blocks =
    Array.append rewritten (Array.of_list (List.rev !new_blocks))
  in
  ({ f with Ir.blocks }, !added)

(* ------------------------------------------------------------------ *)
(* Per-function instrumentation.                                       *)

let instrument_func (config : config) (fcnts : int StrMap.t)
    (next_loop_id : int ref) (f : Ir.func) : Ir.func * func_stats =
  let ld = Loops.detect f in
  let inc = Array.map (block_increment fcnts) f.blocks in
  let edges = classify_edges f ld in
  (* The loop-collapsed graph contains the CFG minus its back edges, so
     when it is acyclic the CFG is reducible; only a failure needs the
     reducibility test, to report the check the CFG fails first. *)
  let cnt_in =
    try compute_cnt f edges inc
    with Failure _ as e ->
      if not (Loops.is_reducible f ld) then
        failwith ("Counter.instrument_func: irreducible CFG in " ^ f.Ir.fname);
      raise e
  in
  let cnt_out b = cnt_in.(b) + inc.(b) in
  (* A loop is active if some block of its body increments the counter.
     Activity and ids live in arrays indexed by the loop's header; ids are
     handed out in first-use order. *)
  let nb = Array.length f.blocks in
  let active = Array.make nb false and ids = Array.make nb (-1) in
  List.iter
    (fun (l : Loops.loop) ->
       active.(l.Loops.header) <-
         config.instrument_inactive_loops
         || IntSet.exists (fun b -> inc.(b) > 0) l.Loops.body)
    ld.Loops.loops;
  let loop_active (l : Loops.loop) = active.(l.Loops.header) in
  let loops_instrumented = ref 0 in
  let loop_id (l : Loops.loop) =
    let h = l.Loops.header in
    if ids.(h) < 0 then begin
      ids.(h) <- !next_loop_id;
      incr next_loop_id;
      incr loops_instrumented
    end;
    ids.(h)
  in
  let patches =
    List.map
      (fun e ->
         let delta = cnt_in.(e.dst) - cnt_out e.src in
         let code =
           match e.back_of with
           | Some l ->
             if loop_active l then
               let dec =
                 if config.loop_reset then cnt_out e.src - cnt_in.(e.dst)
                 else 0
               in
               [ Ir.Loop_back { loop = loop_id l; dec } ]
             else []
           | None ->
             let active_pops = List.filter loop_active e.pops in
             let exits =
               if active_pops = [] then
                 if delta > 0 then [ Ir.Cnt_add delta ] else []
               else
                 [ Ir.Loop_exit
                     { pops = List.map loop_id active_pops;
                       bump = (if config.loop_reset then Int.max delta 0 else 0) } ]
             in
             let enter =
               match e.enters with
               | Some l when loop_active l -> [ Ir.Loop_enter { loop = loop_id l } ]
               | _ -> []
             in
             (* If the loop reset is disabled (ablation), exit bumps are 0
                and plain compensation still applies. *)
             let extra =
               if (not config.loop_reset) && delta > 0 && active_pops <> [] then
                 [ Ir.Cnt_add delta ]
               else []
             in
             exits @ extra @ enter
         in
         { e; code })
      edges
  in
  let f', added = materialize f patches in
  let loops_instrumented = !loops_instrumented in
  let max_cnt =
    Array.fold_left Int.max 0 (Array.mapi (fun b _ -> cnt_out b) f.blocks)
  in
  let fcnt =
    (* cnt at the unique return block's end; if no block returns (infinite
       loop), fall back to the maximum. *)
    let best = ref (-1) in
    Array.iter
      (fun (b : Ir.block) ->
         match b.Ir.term with
         | Ir.Ret _ -> best := Int.max !best (cnt_out b.Ir.bid)
         | Ir.Jump _ | Ir.Branch _ -> ())
      f.blocks;
    if !best >= 0 then !best else max_cnt
  in
  ( f',
    { fname = f.Ir.fname; fcnt; max_cnt;
      loops_total = List.length ld.Loops.loops;
      loops_instrumented; added_instrs = added } )

(* ------------------------------------------------------------------ *)
(* Whole-program instrumentation.                                      *)

(* Pre-pass: mark direct calls to recursive functions as fresh-frame. *)
let mark_fresh_frames (cg : Callgraph.t) (p : Ir.program) : Ir.program * int =
  let count = ref 0 in
  let rewrite_instr i =
    match i with
    | Ir.Call ({ callee; fresh_frame = false; _ } as c)
      when Callgraph.is_recursive cg callee ->
      incr count;
      Ir.Call { c with fresh_frame = true }
    | _ -> i
  in
  let funcs =
    Array.map
      (fun (f : Ir.func) ->
         let blocks =
           Array.map
             (fun (b : Ir.block) ->
                { b with Ir.instrs = Array.map rewrite_instr b.Ir.instrs })
             f.blocks
         in
         { f with Ir.blocks })
      p.funcs
  in
  ({ p with Ir.funcs }, !count)

let instrument ?(config = default_config) (p : Ir.program) : Ir.program * stats
  =
  let cg = Callgraph.compute p in
  let p, fresh_call_sites = mark_fresh_frames cg p in
  let instrs_before = ref 0 and indirect_sites = ref 0 in
  let syscall_sites = ref 0 in
  Ir.iter_instrs p (fun _ _ i ->
      incr instrs_before;
      match i with
      | Ir.Call_indirect _ -> incr indirect_sites
      | Ir.Syscall _ -> incr syscall_sites
      | _ -> ());
  let next_loop_id = ref 0 in
  let fcnts = ref StrMap.empty in
  let results = Hashtbl.create 16 in
  (* callees-before-callers order so FCNT of callees is available *)
  List.iter
    (fun name ->
       match Ir.find_func p name with
       | None -> ()
       | Some f ->
         let f', fs = instrument_func config !fcnts next_loop_id f in
         fcnts := StrMap.add name fs.fcnt !fcnts;
         Hashtbl.replace results name (f', fs))
    cg.Callgraph.order;
  let funcs =
    Array.map
      (fun (f : Ir.func) ->
         match Hashtbl.find_opt results f.Ir.fname with
         | Some (f', _) -> f'
         | None ->
           (* unreachable from the call graph roots: instrument standalone *)
           fst (instrument_func config !fcnts next_loop_id f))
      p.funcs
  in
  let per_func =
    Array.to_list p.funcs
    |> List.filter_map (fun (f : Ir.func) ->
        Option.map snd (Hashtbl.find_opt results f.Ir.fname))
  in
  let stats =
    { per_func;
      recursive_funcs =
        Array.to_list p.funcs
        |> List.filter (fun (f : Ir.func) ->
            Callgraph.is_recursive cg f.Ir.fname)
        |> List.length;
      indirect_sites = !indirect_sites;
      fresh_call_sites;
      syscall_sites = !syscall_sites;
      instrs_before = !instrs_before;
      instrs_added = List.fold_left (fun a (fs : func_stats) -> a + fs.added_instrs) 0 per_func;
      loops_instrumented =
        List.fold_left (fun a (fs : func_stats) -> a + fs.loops_instrumented) 0 per_func;
      max_static_cnt = List.fold_left (fun a (fs : func_stats) -> Int.max a fs.max_cnt) 0 per_func;
    }
  in
  ({ Ir.funcs; n_sites = p.Ir.n_sites; n_loops = !next_loop_id }, stats)

(* Static counter table of a single function (exposed for tests): for the
   given function, returns [(bid, cnt_in, cnt_out)] computed with the
   given callee FCNT table. *)
let static_counters (fcnts : (string * int) list) (f : Ir.func) :
  (int * int * int) list =
  let fcnts =
    List.fold_left (fun m (k, v) -> StrMap.add k v m) StrMap.empty fcnts
  in
  let ld = Loops.detect f in
  let inc = Array.map (block_increment fcnts) f.blocks in
  let edges = classify_edges f ld in
  let cnt_in = compute_cnt f edges inc in
  Array.to_list
    (Array.mapi (fun b _ -> (b, cnt_in.(b), cnt_in.(b) + inc.(b))) f.blocks)
