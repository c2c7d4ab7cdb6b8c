(* Execution positions and the progress order.

   The paper's alignment state is the counter plus the implicit knowledge
   encoded by the loop barriers (which iteration each execution is in) and
   the counter stack (Sec. 6).  We make that state explicit: a position is
   the stack of counter segments (one per fresh frame, outermost first),
   each carrying its counter value and its stack of (loop id, iteration)
   pairs (outermost loop first after normalization).

   Two executions of the same instrumented program are control-flow
   aligned at syscalls exactly when their positions are equal and the
   syscall sites (PCs) coincide — the paper's "same counter value and the
   same PC" criterion.  The order [compare] answers "which execution is
   further ahead", which is what the runtime uses to decide between
   waiting and declaring a path difference.  Within a thread, positions at
   successive syscalls strictly increase; this is what makes outcome-queue
   matching sound (see {!Engine}). *)

type seg = {
  cnt : int;
  loops : (int * int) list;   (* (loop id, iteration), OUTERMOST first *)
}

type t = seg list             (* outermost segment first *)

let of_thread (th : Ldx_vm.Machine.thread) : t =
  List.map
    (fun (cnt, loops) -> { cnt; loops = List.rev loops })
    (Ldx_vm.Machine.position_of th)

(* Compare two segments of the same program region.

   Walk the loop stacks outermost-first:
   - same loop, different iteration: the earlier iteration is behind;
   - same loop, same iteration: look deeper;
   - different loops (or one side not in a loop the other is in): the
     counter decides — the instrumentation guarantees that counter values
     order correctly across loop boundaries (post-loop counters dominate
     in-loop ones, pre-loop counters are dominated).  Counter ties mean
     "same progress"; the caller separates genuinely aligned points from
     divergent ones by comparing PCs. *)
let compare_seg (a : seg) (b : seg) : int =
  let rec walk la lb =
    match (la, lb) with
    | (l1, i1) :: ra, (l2, i2) :: rb when l1 = l2 ->
      if i1 <> i2 then Stdlib.compare i1 i2 else walk ra rb
    | _, _ -> Stdlib.compare a.cnt b.cnt
  in
  walk a.loops b.loops

(* Compare positions: first differing segment decides; if one position is
   a strict segment-prefix of the other, the deeper one (inside a fresh
   frame the other has not entered, at equal outer progress) is ahead. *)
let rec compare (a : t) (b : t) : int =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | sa :: ra, sb :: rb ->
    let c = compare_seg sa sb in
    if c <> 0 then c else compare ra rb

let seg_to_string (s : seg) =
  let loops =
    String.concat ""
      (List.map (fun (l, i) -> Printf.sprintf "L%d#%d." l i) s.loops)
  in
  Printf.sprintf "%s%d" loops s.cnt

let to_string (p : t) =
  "<" ^ String.concat "|" (List.map seg_to_string p) ^ ">"
