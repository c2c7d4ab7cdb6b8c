(** Execution positions and the progress order.

    The paper's alignment state is the counter plus the knowledge
    implicitly encoded by the loop barriers (which iteration each
    execution is in) and by the counter stack (Sec. 6).  A position makes
    that explicit: the stack of counter segments — one per fresh frame,
    outermost first — each with its counter value and its stack of
    (loop id, iteration) pairs, outermost loop first.

    Two executions of the same instrumented program are control-flow
    aligned at syscalls exactly when their positions are equal and the
    static sites (PCs) coincide.  Within a thread, positions at
    successive syscalls strictly increase, which makes per-thread FIFO
    outcome matching complete (see {!Engine}).

    This explicit form is the one deliberate refinement over the paper's
    description (see DESIGN.md): it yields a deadlock-free total progress
    comparison while reporting exactly the paper's counter values. *)

type seg = {
  cnt : int;
  loops : (int * int) list;   (** (loop id, iteration), outermost first *)
}

type t = seg list             (** outermost segment first *)

(** Snapshot a VM thread's position. *)
val of_thread : Ldx_vm.Machine.thread -> t

(** Compare two segments: shared loops lexicographically by iteration,
    otherwise by counter (the instrumentation orders counters correctly
    across loop boundaries); ties mean "same progress". *)
val compare_seg : seg -> seg -> int

(** Progress order: the first differing segment decides; at an equal
    prefix, the deeper position (inside a fresh frame the other has not
    entered) is ahead.  Total on positions from a common region;
    reflexive and antisymmetric everywhere (see the property suite). *)
val compare : t -> t -> int

val seg_to_string : seg -> string

(** E.g. ["<15|L1#2.4>"] — counter 15 in the outer segment, then a fresh
    segment at iteration 2 of loop 1 with counter 4. *)
val to_string : t -> string
