(** Bench-to-bench regression comparison over [BENCH_results.json]
    trees (schema ["ldx-bench/1"]).

    Two classes of signal with different tolerances:

    - [engine_counters] is derived entirely from the deterministic
      virtual-cycle model, so it is compared with {e zero tolerance}:
      any per-workload counter (leak verdict, syscall counts, copies,
      [wall_cycles], ...) that differs between baseline and current is
      a regression.  A workload present in the baseline but missing
      from the current run is also a regression.
    - The deterministic fields of the [incremental] entry (task count,
      decouple verdict, prefix cycles, table identity) and of the
      [durable] entry ([resume_replayed], [resume_rerun]) are compared
      the same way, also under [cycles_only].
    - [wall_times] is host wall time and noisy; a kernel regresses only
      when [current > baseline * (1 + threshold)].  With [cycles_only]
      wall times are skipped entirely — the mode CI uses, where shared
      runners make wall time meaningless. *)

type outcome = {
  bd_regressions : int;  (** 0 = gate passes *)
  bd_checks : int;       (** comparisons performed *)
  bd_report : string;    (** human-readable summary, one line per check
                             that regressed plus a totals line *)
}

(** [compare ~threshold ~cycles_only ~baseline ~current].  [threshold]
    defaults to [0.3] (30% wall-time slack); [cycles_only] defaults to
    [false]. *)
val compare :
  ?threshold:float ->
  ?cycles_only:bool ->
  baseline:Ldx_obs.Json.t ->
  current:Ldx_obs.Json.t ->
  unit ->
  (outcome, string) result

(** Self-test helper: a copy of the tree with one wall-time kernel
    slowed far past any threshold and one workload's [wall_cycles]
    counter bumped — {!compare} against the original must flag both.
    [Error] if the tree has no wall time or no counter to doctor. *)
val doctor : Ldx_obs.Json.t -> (Ldx_obs.Json.t, string) result
