(* The paper's evaluation, regenerated (Sec. 8).

   One function per table/figure; each returns a rendered report.  The
   mapping to paper artifacts is indexed in DESIGN.md; paper-vs-measured
   commentary lives in EXPERIMENTS.md. *)

module Engine = Ldx_core.Engine
module Mutation = Ldx_core.Mutation
module Tightlip = Ldx_core.Tightlip
module Dualex = Ldx_core.Dualex_index
module Tracker = Ldx_taint.Tracker
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Counter = Ldx_instrument.Counter
module Ir = Ldx_cfg.Ir
module Driver = Ldx_vm.Driver

let dual ?(config_of = fun w -> Workload.leak_config w) (w : Workload.t) =
  let prog, _ = Workload.instrumented w in
  Engine.run ~config:(config_of w) prog w.Workload.world

let native_cycles (w : Workload.t) =
  (Driver.run (Workload.lower w) w.Workload.world).Driver.cycles

(* ------------------------------------------------------------------ *)
(* Table 1: benchmarks and instrumentation.                            *)

let static_sink_sites (w : Workload.t) (prog : Ir.program) =
  let pred = Engine.sink_pred w.Workload.sinks in
  Ir.count_instrs_if
    (function Ir.Syscall { sys; site; _ } -> pred sys site [] | _ -> false)
    prog

let table1 () =
  let rows =
    List.map
      (fun (w : Workload.t) ->
         let plain = Workload.lower w in
         let prog, stats = Workload.instrumented w in
         let r = dual w in
         [ w.Workload.name;
           Workload.category_to_string w.Workload.category;
           string_of_int (Workload.minic_loc w);
           w.Workload.paper_loc;
           Printf.sprintf "%d (%s)" stats.Counter.instrs_added
             (Table.pct
                (float_of_int stats.Counter.instrs_added
                 /. float_of_int (max 1 stats.Counter.instrs_before)));
           string_of_int stats.Counter.loops_instrumented;
           string_of_int stats.Counter.recursive_funcs;
           string_of_int stats.Counter.indirect_sites;
           string_of_int (static_sink_sites w prog);
           string_of_int (Ir.total_syscall_sites plain);
           string_of_int stats.Counter.max_static_cnt;
           Printf.sprintf "%.1f/%d" r.Engine.dyn_cnt_avg r.Engine.dyn_cnt_max;
           string_of_int r.Engine.max_seg_depth;
           string_of_int r.Engine.mutated_inputs ])
      Registry.all
  in
  Table.make ~title:"Table 1: Benchmarks and Instrumentation"
    ~headers:
      [ "Program"; "Set"; "LOC"; "Paper LOC"; "Instr. added"; "Loops";
        "Recur."; "FPTR"; "Sinks"; "Syscalls"; "Max Cnt";
        "Dyn Cnt avg/max"; "Stack"; "Mutated" ]
    ~aligns:
      [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right; Table.Right ]
    ~notes:
      [ "LOC is MiniC lines; Paper LOC is the original benchmark's size.";
        "Instr. added = counter-maintenance instructions inserted \
         (percentage of pre-instrumentation instructions).";
        "Dyn Cnt and Stack are measured during the leak-configuration \
         dual execution." ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 6: normalized overhead (identical inputs / mutated inputs).    *)

type fig6_row = {
  f6_name : string;
  f6_native : int;
  f6_same : float;
  f6_mutated : float;
}

let fig6_data () =
  List.map
    (fun (w : Workload.t) ->
       let native = native_cycles w in
       let r_same = dual ~config_of:Workload.no_mutation_config w in
       let r_mut = dual w in
       let ov r =
         float_of_int (r.Engine.wall_cycles - native) /. float_of_int native
       in
       { f6_name = w.Workload.name;
         f6_native = native;
         f6_same = ov r_same;
         f6_mutated = ov r_mut })
    Registry.performance_set

let fig6 () =
  let data = fig6_data () in
  let rows =
    List.map
      (fun d ->
         [ d.f6_name; string_of_int d.f6_native; Table.pct d.f6_same;
           Table.pct d.f6_mutated ])
      data
  in
  let same = List.map (fun d -> d.f6_same) data in
  let muts = List.map (fun d -> d.f6_mutated) data in
  let footer =
    [ [ "geo-mean"; ""; Table.pct (Table.geomean (List.map (fun x -> 1.0 +. x) same) -. 1.0);
        Table.pct (Table.geomean (List.map (fun x -> 1.0 +. x) muts) -. 1.0) ];
      [ "arith-mean"; ""; Table.pct (Table.mean same); Table.pct (Table.mean muts) ] ]
  in
  Table.make ~title:"Fig. 6: Normalized overhead of LDX (virtual cycles)"
    ~headers:[ "Program"; "Native cycles"; "Same inputs"; "Mutated inputs" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~notes:
      [ "Baseline: uninstrumented single execution.  LDX wall clock = \
         max(master, slave) virtual cycles (two CPUs; outcome copies \
         are ordered by the producing clock).";
        "Paper reference: geo-means 4.45%/4.7%, arith-means 5.7%/6.08%." ]
    (rows @ footer)

(* ------------------------------------------------------------------ *)
(* Table 2: effectiveness of dual execution (vs TightLip).             *)

let tightlip_verdict (w : Workload.t) config =
  let prog, _ = Workload.instrumented w in
  let r = Tightlip.run ~config prog w.Workload.world in
  if r.Tightlip.leak_reported then "O" else "X"

let table2 () =
  let interesting =
    List.filter
      (fun (w : Workload.t) ->
         w.Workload.category = Workload.Leak_detection
         || w.Workload.category = Workload.Spec)
      Registry.all
  in
  let rows =
    List.map
      (fun (w : Workload.t) ->
         let r_leak = dual w in
         let ldx1 = if r_leak.Engine.leak then "O" else "X" in
         let ldx2, tl2 =
           match Workload.benign_config w with
           | None -> ("-", "-")
           | Some config ->
             let prog, _ = Workload.instrumented w in
             let r = Engine.run ~config prog w.Workload.world in
             ( (if r.Engine.leak then "O" else "X"),
               tightlip_verdict w config )
         in
         let tl1 = tightlip_verdict w (Workload.leak_config w) in
         [ w.Workload.name;
           Printf.sprintf "%s / %s" ldx1 ldx2;
           Printf.sprintf "%s / %s" tl1 tl2;
           Printf.sprintf "%d (%s)" r_leak.Engine.syscall_diffs
             (Table.pct
                (float_of_int r_leak.Engine.syscall_diffs
                 /. float_of_int (max 1 r_leak.Engine.total_syscalls))) ])
      interesting
  in
  Table.make
    ~title:"Table 2: Dual-execution effectiveness (LDX vs TightLip)"
    ~headers:
      [ "Program"; "LDX: leak-mut / benign-mut"; "TightLip: leak / benign";
        "Syscall diffs (leak run)" ]
    ~notes:
      [ "O = leakage reported, X = no warning, - = no benign mutation \
         constructible (numeric programs: every mutation reaches the sink).";
        "LDX distinguishes the two mutations; TightLip flags any syscall \
         difference, leaking or not." ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 3: causality inference vs dynamic tainting.                   *)

let taint_config (w : Workload.t) model =
  { Tracker.model;
    sources = w.Workload.leak_sources;
    sinks = w.Workload.sinks;
    max_steps = 30_000_000 }

let table3_row (w : Workload.t) =
  let tg = Tracker.run ~config:(taint_config w Tracker.Taintgrind)
      (Workload.lower w) w.Workload.world in
  let ld = Tracker.run ~config:(taint_config w Tracker.Libdft)
      (Workload.lower w) w.Workload.world in
  let ldx = dual w in
  (w, tg, ld, ldx)

let table3 () =
  let data = List.map table3_row Registry.all in
  let rows =
    List.map
      (fun ((w : Workload.t), (tg : Tracker.result), (ld : Tracker.result), ldx) ->
         [ w.Workload.name;
           string_of_int ld.Tracker.tainted_sinks;
           string_of_int tg.Tracker.tainted_sinks;
           string_of_int ldx.Engine.tainted_sinks;
           string_of_int ldx.Engine.total_sinks ])
      data
  in
  let total f = List.fold_left (fun a r -> a + f r) 0 data in
  let tot_ld = total (fun (_, _, (ld : Tracker.result), _) -> ld.Tracker.tainted_sinks) in
  let tot_tg = total (fun (_, (tg : Tracker.result), _, _) -> tg.Tracker.tainted_sinks) in
  let tot_ldx = total (fun (_, _, _, x) -> x.Engine.tainted_sinks) in
  let tot_all = total (fun (_, _, _, x) -> x.Engine.total_sinks) in
  let footer =
    [ [ "TOTAL"; string_of_int tot_ld; string_of_int tot_tg;
        string_of_int tot_ldx; string_of_int tot_all ];
      [ "vs LDX"; Table.pct (float_of_int tot_ld /. float_of_int (max 1 tot_ldx));
        Table.pct (float_of_int tot_tg /. float_of_int (max 1 tot_ldx));
        "100%"; "" ] ]
  in
  Table.make
    ~title:"Table 3: Tainted sinks — LibDFT vs TaintGrind vs LDX"
    ~headers:[ "Program"; "LibDFT"; "TaintGrind"; "LDX"; "Total sinks" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~notes:
      [ "Paper reference: LIBDFT and TaintGrind report 20% and 31.47% of \
         LDX's tainted sinks; LIBDFT is a subset of TaintGrind (library-\
         call modelling gaps); control-dependence leaks are missed by both.";
        "The last six rows are the vulnerable set: the sinks are return-\
         address and allocation-size checks (attack detection)." ]
    (rows @ footer)

(* ------------------------------------------------------------------ *)
(* Table 4: concurrent programs (repeated dual executions).            *)

let table4 ?(runs = 100) () =
  let rows =
    List.map
      (fun (w : Workload.t) ->
         let prog, _ = Workload.instrumented w in
         let results =
           List.init runs (fun i ->
               let config =
                 { (Workload.leak_config w) with
                   Engine.master_seed = i + 1;
                   slave_seed = 10_000 + i }
               in
               Engine.run ~config prog w.Workload.world)
         in
         let diffs = List.map (fun r -> r.Engine.syscall_diffs) results in
         let sinks = List.map (fun r -> r.Engine.tainted_sinks) results in
         let dlo, dhi = Table.min_max diffs in
         let slo, shi = Table.min_max sinks in
         let fl = List.map float_of_int in
         [ w.Workload.name;
           Printf.sprintf "%d / %d / %s" dlo dhi
             (Table.f2 (Table.stddev (fl diffs)));
           Printf.sprintf "%d / %d / %s" slo shi
             (Table.f2 (Table.stddev (fl sinks))) ])
      Registry.concurrency
  in
  Table.make
    ~title:
      (Printf.sprintf
         "Table 4: Concurrent programs (%d dual executions, perturbed \
          schedules)" runs)
    ~headers:
      [ "Program"; "Syscall diffs (min/max/stddev)";
        "Tainted sinks (min/max/stddev)" ]
    ~notes:
      [ "Master and slave run with different scheduler seeds per trial; \
         lock order is shared, unprotected races are free to differ.";
        "Paper reference: tainted sinks are stable except axel and x264, \
         whose raced values feed a sink." ]
    rows

(* ------------------------------------------------------------------ *)
(* Case studies.                                                       *)

let show_reports (r : Engine.result) =
  String.concat "\n"
    (List.map (fun rep -> "    " ^ Engine.report_to_string rep) r.Engine.reports)

let case_gcc () =
  let w = Registry.find_exn "403.gcc" in
  let strategy =
    Mutation.Swap_substring ("NGX_HAVE_POLL 1", "NGX_HAVE_POLL 0")
  in
  let prog, _ = Workload.instrumented w in
  let config = Workload.leak_config ~strategy w in
  let r = Engine.run ~config prog w.Workload.world in
  let tg = Tracker.run ~config:(taint_config w Tracker.Taintgrind)
      (Workload.lower w) w.Workload.world in
  let ld = Tracker.run ~config:(taint_config w Tracker.Libdft)
      (Workload.lower w) w.Workload.world in
  Printf.sprintf
    "## Case study: 403.gcc (Fig. 7)\n\n\
     The mini preprocessor expands an nginx-like source.  The slave flips\n\
     NGX_HAVE_POLL from 1 to 0: the #if branch is skipped, poll.h is not\n\
     included, and the emitted translation unit changes.  The causality\n\
     from the configuration value to the output is a control dependence\n\
     (the value only feeds the #if predicate).\n\n\
     LDX:        leak=%b, tainted sinks=%d, syscall diffs=%d\n%s\n\n\
     TaintGrind: tainted sinks=%d (control dependence breaks propagation)\n\
     LibDFT:     tainted sinks=%d\n"
    r.Engine.leak r.Engine.tainted_sinks r.Engine.syscall_diffs
    (show_reports r) tg.Tracker.tainted_sinks ld.Tracker.tainted_sinks

let case_firefox () =
  let w = Registry.find_exn "Firefox" in
  let strategy = Mutation.Swap_substring ("bank.example", "blog.example") in
  let prog, _ = Workload.instrumented w in
  let config = Workload.leak_config ~strategy w in
  let r = Engine.run ~config prog w.Workload.world in
  let tg = Tracker.run ~config:(taint_config w Tracker.Taintgrind)
      (Workload.lower w) w.Workload.world in
  let ld = Tracker.run ~config:(taint_config w Tracker.Libdft)
      (Workload.lower w) w.Workload.world in
  Printf.sprintf
    "## Case study: Firefox / ShowIP extension\n\n\
     The event loop dispatches UI events through function pointers (the\n\
     JS-engine analogue).  The ShowIP extension classifies the visited\n\
     URL by branching on its host and sends the category to a remote\n\
     service: the URL reaches the network only through control\n\
     dependences.  The slave visits blog.example instead of\n\
     bank.example.\n\n\
     LDX:        leak=%b, tainted sinks=%d, syscall diffs=%d\n%s\n\n\
     TaintGrind: tainted sinks=%d\n\
     LibDFT:     tainted sinks=%d\n"
    r.Engine.leak r.Engine.tainted_sinks r.Engine.syscall_diffs
    (show_reports r) tg.Tracker.tainted_sinks ld.Tracker.tainted_sinks

(* ------------------------------------------------------------------ *)
(* Mutation-strategy study (Sec. 8.3 / TR).                            *)

let mutation_study () =
  let set =
    List.filter
      (fun (w : Workload.t) ->
         w.Workload.category = Workload.Leak_detection
         || w.Workload.category = Workload.Vulnerable)
      Registry.all
  in
  let rows =
    List.map
      (fun (name, strategy) ->
         let detected =
           List.filter
             (fun (w : Workload.t) ->
                let prog, _ = Workload.instrumented w in
                let config = Workload.leak_config ~strategy w in
                (Engine.run ~config prog w.Workload.world).Engine.leak)
             set
         in
         [ name;
           Printf.sprintf "%d / %d" (List.length detected) (List.length set) ])
      Mutation.all_strategies
  in
  Table.make
    ~title:"Mutation strategies: leaks/attacks detected (leak+vuln sets)"
    ~headers:[ "Strategy"; "Detected" ]
    ~notes:
      [ "Paper finding: other strategies do not supersede off-by-one.";
        "Zero can be vacuous (mutating a 0 to 0) and wide random jumps \
         can hop between equivalence classes; off-by-one always leaves \
         the value's neighbourhood." ]
    rows

(* ------------------------------------------------------------------ *)
(* False-positive check (Sec. 8.3: "LDX does not report any false      *)
(* warnings"): the attack-detection programs on benign inputs, with    *)
(* neighbourhood mutations of the benign fields, must stay silent.     *)

(* Per-program benign-field mutation (the workload's attack-field swap
   may not occur in the benign input). *)
let fp_strategy (w : Workload.t) : Mutation.strategy =
  match w.Workload.name with
  | "Gif2png" -> Mutation.Swap_substring ("012", "013")
  | "Prozilla" -> Mutation.Swap_substring ("000024", "000025")
  | _ -> Mutation.Off_by_one

let fp_check () =
  let rows =
    List.filter_map
      (fun (w : Workload.t) ->
         match w.Workload.safe_world with
         | None -> None
         | Some safe ->
           let prog, _ = Workload.instrumented w in
           let attack =
             Engine.run ~config:(Workload.leak_config w) prog w.Workload.world
           in
           let config =
             { (Workload.leak_config w) with
               Engine.strategy = fp_strategy w }
           in
           let benign = Engine.run ~config prog safe in
           Some
             [ w.Workload.name;
               (if attack.Engine.leak then "attack reported" else "MISSED");
               (if benign.Engine.leak then "FALSE WARNING"
                else Printf.sprintf "silent (%d mutated)"
                    benign.Engine.mutated_inputs) ])
      Registry.all
  in
  Table.make
    ~title:"False-positive check: attack inputs vs benign inputs"
    ~headers:[ "Program"; "Attack input"; "Benign input" ]
    ~notes:
      [ "The same sink configuration and a benign-field neighbourhood \
         mutation: LDX must flag the attack and stay silent on benign \
         traffic (the paper's no-false-warnings validation).";
        "mp3info and the gcc front end are excluded: their malloc-size \
         sinks legitimately depend on input sizes on every input." ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablation A1: alignment schemes (LDX counter vs DualEx indexing vs   *)
(* TightLip windowless comparison).                                    *)

let ablation_alignment () =
  let set = Registry.leak @ Registry.spec in
  let rows =
    List.map
      (fun (w : Workload.t) ->
         let native = native_cycles w in
         let r = dual w in
         let est = Dualex.of_result ~native_cycles:native r in
         let prog, _ = Workload.instrumented w in
         let tl = Tightlip.run ~config:(Workload.leak_config w) prog
             w.Workload.world in
         [ w.Workload.name;
           Table.pct est.Dualex.ldx_overhead;
           Printf.sprintf "%.0fx" (1.0 +. est.Dualex.dualex_overhead);
           (if r.Engine.leak then "O" else "X");
           (if tl.Tightlip.leak_reported then
              if tl.Tightlip.terminated_early then "O (terminated)"
              else "O"
            else "X") ])
      set
  in
  Table.make
    ~title:"Ablation A1: alignment schemes on the leak+SPEC sets"
    ~headers:
      [ "Program"; "LDX overhead"; "DualEx slowdown"; "LDX verdict";
        "TightLip verdict" ]
    ~notes:
      [ "DualEx pays a per-instruction indexing+IPC cost (three orders \
         of magnitude, Sec. 8.1); TightLip cannot continue past syscall \
         differences." ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablation A2: loop counter reset on/off (Algorithm 3).               *)

let ablation_loops () =
  let set =
    List.filter_map
      (fun name -> Registry.find name)
      [ "400.perlbench"; "456.hmmer"; "462.libquantum"; "Nginx"; "Tnftp" ]
  in
  let run_with reset (w : Workload.t) =
    let config_i = { Counter.default_config with Counter.loop_reset = reset } in
    let prog, _ = Counter.instrument ~config:config_i (Workload.lower w) in
    match Workload.benign_config w with
    | None -> None
    | Some config -> Some (Engine.run ~config prog w.Workload.world)
  in
  let rows =
    List.filter_map
      (fun (w : Workload.t) ->
         match (run_with true w, run_with false w) with
         | Some on, Some off ->
           Some
             [ w.Workload.name;
               Printf.sprintf "%d diffs, leak=%b" on.Engine.syscall_diffs
                 on.Engine.leak;
               Printf.sprintf "%d diffs, leak=%b" off.Engine.syscall_diffs
                 off.Engine.leak ]
         | _ -> None)
      set
  in
  Table.make
    ~title:
      "Ablation A2: loop backedge reset (benign mutation, divergent trip \
       counts)"
    ~headers:[ "Program"; "With reset (Alg. 3)"; "Without reset" ]
    ~notes:
      [ "Without the reset the counter grows with iterations: executions \
         with different trip counts never realign after the loop, so a \
         benign perturbation turns into spurious sink reports (false \
         positives) and inflated difference counts." ]
    rows

(* ------------------------------------------------------------------ *)

let all ?(runs = 100) () =
  String.concat "\n"
    [ Table.render (table1 ());
      Table.render (fig6 ());
      Table.render (table2 ());
      Table.render (table3 ());
      Table.render (table4 ~runs ());
      case_gcc ();
      case_firefox ();
      Table.render (fp_check ());
      Table.render (mutation_study ());
      Table.render (ablation_alignment ());
      Table.render (ablation_loops ()) ]
