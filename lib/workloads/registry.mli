(** The complete 28-benchmark registry, in Table 1 order. *)

(** 12 SPEC INT analogues. *)
val spec : Workload.t list

(** 5 network/system programs. *)
val leak : Workload.t list

(** 6 attack-detection programs. *)
val vulnerable : Workload.t list

(** 5 multithreaded programs. *)
val concurrency : Workload.t list

val all : Workload.t list

val find : string -> Workload.t option

(** @raise Invalid_argument on unknown names. *)
val find_exn : string -> Workload.t

(** The Fig. 6 performance subset (non-interactive programs). *)
val performance_set : Workload.t list
