(* Property-based tests (qcheck, registered via QCheck_alcotest).

   The headline properties quantify over *random structured programs*
   (Gen_minic): the instrumentation algorithms and the dual-execution
   engine must uphold their invariants on arbitrary CFG shapes, not just
   the curated workloads. *)

module Engine = Ldx_core.Engine
module Align = Ldx_core.Align
module Mutation = Ldx_core.Mutation
module Counter = Ldx_instrument.Counter
module Lower = Ldx_cfg.Lower
module Ir = Ldx_cfg.Ir
module World = Ldx_osim.World
module Gen_minic = Ldx_genprog.Gen_minic
module Sval = Ldx_osim.Sval
module Driver = Ldx_vm.Driver
open Ldx_lang

let test_world =
  World.(
    empty
    |> with_endpoint "in" [ "3"; "14"; "15"; "9"; "2"; "6"; "5"; "35"; "8" ])

let lower_gen p = Lower.lower_program p

let count = 150

let qtest name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:Gen_minic.print_program gen prop)

(* P1: lowering + instrumentation never fails on structured programs, and
   the instrumented program is structurally sane (dense block ids, all
   branch targets in range). *)
let prop_instrumentation_total (p : Ast.program) =
  let prog, _ = Counter.instrument (lower_gen p) in
  Array.for_all
    (fun (f : Ir.func) ->
       let n = Array.length f.Ir.blocks in
       f.Ir.entry >= 0 && f.Ir.entry < n
       && Array.for_all
         (fun (b : Ir.block) ->
            List.for_all (fun s -> s >= 0 && s < n)
              (Ir.successors b.Ir.term))
         f.Ir.blocks)
    prog.Ir.funcs

(* P2: a native run of the instrumented program behaves exactly like the
   uninstrumented one (same stdout, same syscall count) — counter
   maintenance is semantically transparent — and the master pass, the
   same loop with the engine's OS callback, is that native run (same
   stdout, trap, steps, cycles and syscalls). *)
let prop_instrumentation_transparent (p : Ast.program) =
  let plain = Driver.run (lower_gen p) test_world in
  let prog = fst (Counter.instrument (lower_gen p)) in
  let instr = Driver.run prog test_world in
  let ms =
    (Engine.master_pass Engine.default_config prog test_world).Engine.msummary
  in
  plain.Driver.trap = None
  && instr.Driver.trap = None
  && String.equal plain.Driver.stdout instr.Driver.stdout
  && plain.Driver.syscalls = instr.Driver.syscalls
  && String.equal ms.Engine.stdout instr.Driver.stdout
  && ms.Engine.trap = instr.Driver.trap
  && ms.Engine.steps = instr.Driver.steps
  && ms.Engine.cycles = instr.Driver.cycles
  && ms.Engine.syscalls = instr.Driver.syscalls

(* P3: alignment completeness — dual-executing any structured program
   with NO mutation yields zero syscall differences, no reports, and a
   clean slave.  This exercises Algorithm 1 + 3 + fresh frames on random
   CFGs, so the slave is executed ([Executed.run]), never derived. *)
let no_sources =
  { Engine.default_config with Engine.sources = [] }

let prop_alignment_complete (p : Ast.program) =
  let prog, _ = Counter.instrument (lower_gen p) in
  let r = Executed.run ~config:no_sources prog test_world in
  r.Engine.syscall_diffs = 0
  && (not r.Engine.leak)
  && r.Engine.slave.Engine.trap = None
  && r.Engine.master.Engine.trap = None
  && String.equal r.Engine.master.Engine.stdout r.Engine.slave.Engine.stdout

(* P4: robustness under mutation — whatever the program shape, the slave
   must terminate cleanly (divergence is tolerated, never fatal), and the
   engine's difference accounting must stay consistent. *)
let recv_sources =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"recv" () ] }

let prop_divergence_tolerated (p : Ast.program) =
  let prog, _ = Counter.instrument (lower_gen p) in
  let r = Engine.run ~config:recv_sources prog test_world in
  r.Engine.slave.Engine.trap = None
  && r.Engine.master.Engine.trap = None
  && r.Engine.diffs_before_first_report <= r.Engine.syscall_diffs
  && List.length r.Engine.reports <= r.Engine.total_sinks + r.Engine.syscall_diffs

(* P5: determinism — the whole dual execution is a pure function of
   (program, world, config). *)
let prop_deterministic (p : Ast.program) =
  let prog, _ = Counter.instrument (lower_gen p) in
  let r1 = Engine.run ~config:recv_sources prog test_world in
  let r2 = Engine.run ~config:recv_sources prog test_world in
  r1.Engine.syscall_diffs = r2.Engine.syscall_diffs
  && r1.Engine.tainted_sinks = r2.Engine.tainted_sinks
  && r1.Engine.wall_cycles = r2.Engine.wall_cycles

(* P6: soundness of the leak verdict — if LDX reports no causality, the
   master's and slave's outputs (stdout) are identical. *)
let stdout_sinks =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"recv" () ];
    Engine.sinks = Engine.File_outputs }

let prop_no_leak_means_equal_outputs (p : Ast.program) =
  let prog, _ = Counter.instrument (lower_gen p) in
  let r = Engine.run ~config:stdout_sinks prog test_world in
  r.Engine.leak
  || String.equal r.Engine.master.Engine.stdout r.Engine.slave.Engine.stdout

(* P11: vacuous mutation implies identical executions — when every
   source value is EOF (never mutated), the dual run must be perfectly
   aligned even though the source SPEC matches syscalls. *)
let empty_world = World.(empty |> with_endpoint "in" [])

let prop_vacuous_mutation_aligned (p : Ast.program) =
  let prog, _ = Counter.instrument (lower_gen p) in
  let r = Engine.run ~config:recv_sources prog empty_world in
  r.Engine.mutated_inputs = 0
  && r.Engine.syscall_diffs = 0
  && not r.Engine.leak

(* P13: schedule independence — random race-free concurrent programs,
   dual-executed without mutation under random seed pairs, always align
   perfectly.  Generalizes the hand-written concurrency tests; the
   slave is executed even when the two seeds are equal. *)
let gen_conc_with_seeds =
  QCheck2.Gen.triple Gen_minic.gen_conc_program
    (QCheck2.Gen.int_range 0 1000) (QCheck2.Gen.int_range 0 1000)

let prop_concurrent_alignment (p, ms, ss) =
  let prog, _ = Counter.instrument (lower_gen p) in
  let config =
    { Engine.default_config with
      Engine.sources = [];
      Engine.master_seed = ms;
      slave_seed = ss }
  in
  let r = Executed.run ~config prog World.empty in
  r.Engine.syscall_diffs = 0
  && (not r.Engine.leak)
  && r.Engine.slave.Engine.trap = None
  && r.Engine.master.Engine.trap = None

(* P12: taint changes nothing but verdicts.  Under either model, with
   the default recv sources, the tracker's run of a program has the
   stdout, trap and step count of a plain native run: tainted values
   compute, branch, index, lock and signal as their untainted selves.
   [taint_runs] gives, per model, whether the run matched the native
   one and whether it reached a tainted sink. *)
module Tracker = Ldx_taint.Tracker

let taint_runs prog world =
  let vm = Driver.run prog world in
  List.map
    (fun model ->
       let tt =
         Tracker.run ~config:{ Tracker.default_config with Tracker.model }
           prog world
       in
       ( tt.Tracker.trap = vm.Driver.trap
         && String.equal tt.Tracker.stdout vm.Driver.stdout
         && tt.Tracker.steps = vm.Driver.steps,
         tt.Tracker.tainted_sinks > 0 ))
    [ Tracker.Taintgrind; Tracker.Libdft ]

let prop_taint_interpreter_equivalent (p : Ast.program) =
  List.for_all fst (taint_runs (lower_gen p) test_world)

(* The check above would hold vacuously if no run met taint.  Over a
   fixed sample of [gen_program] (500 programs, both models), at least
   10 % of the runs reach a tainted sink. *)
let test_taint_reaches_sinks () =
  let progs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:500
      Gen_minic.gen_program
  in
  let runs =
    List.concat_map (fun p -> taint_runs (lower_gen p) test_world) progs
  in
  let tainted = List.length (List.filter snd runs) in
  Alcotest.(check bool) "every run as the VM's" true (List.for_all fst runs);
  if 10 * tainted < List.length runs then
    Alcotest.failf "%d of %d runs reach a tainted sink, below 10 %%" tainted
      (List.length runs)

(* P7: parser/printer round-trip on arbitrary single functions.  The
   printer is not injective on the AST (e.g. [Int (-1)] and
   [Neg (Int 1)] both print as "(-1)"), so the property is the standard
   normalization fixpoint: parse∘print is idempotent. *)
let prop_roundtrip (f : Ast.fundef) =
  let p = { Ast.funcs = [ f ] } in
  match Parser.parse_program (Printer.to_string p) with
  | p1 ->
    (match Parser.parse_program (Printer.to_string p1) with
     | p2 -> p1 = p2
     | exception Parser.Error _ -> false)
  | exception Parser.Error _ -> false

(* P8: the progress order is reflexive and antisymmetric on arbitrary
   positions, and a *total order* (hence transitive) on positions that
   share a loop skeleton — which is exactly what the engine compares:
   two executions of the same instrumented program inside the same
   enclosing loops.  (Positions from disjoint loop regions at equal
   counter values deliberately compare equal; the wrapper separates
   those by PC.) *)
let gen_skeleton_positions : (Align.t * Align.t * Align.t) QCheck2.Gen.t =
  let open QCheck2.Gen in
  (* Same loop nest (ids and depth) for all three — the situation the
     engine actually compares at aligned-or-diverging syscalls inside a
     common region.  (Across loop boundaries the counter invariant makes
     the cnt fields differ, so mixed depths never tie in practice; the
     raw generator cannot know that, hence the restriction.) *)
  let* skeleton = list_size (int_range 0 3) (int_range 0 4) in
  let instantiate =
    let* iters = list_repeat (List.length skeleton) (int_range 0 5) in
    let* cnt = int_range 0 20 in
    return [ { Align.cnt; loops = List.combine skeleton iters } ]
  in
  triple instantiate instantiate instantiate

let gen_position : Align.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_seg =
    let* cnt = int_range 0 20 in
    let* loops =
      list_size (int_range 0 3)
        (pair (int_range 0 4) (int_range 0 5))
    in
    return { Align.cnt; loops }
  in
  list_size (int_range 1 3) gen_seg

let prop_align_reflexive_antisym (a, b) =
  Align.compare a a = 0
  && Align.compare a b = -Align.compare b a

let prop_align_total_on_skeleton (a, b, c) =
  let ( <= ) x y = Align.compare x y <= 0 in
  (not (a <= b && b <= c)) || a <= c

(* P9: off-by-one mutation properties: never fabricates EOF, preserves
   string length, changes every nonempty alphanumeric string. *)
let gen_sval =
  let open QCheck2.Gen in
  oneof
    [ map (fun n -> Sval.I n) (int_range (-1000) 1000);
      map (fun s -> Sval.S s) (string_size ~gen:printable (int_range 0 12)) ]

let prop_mutation_sane v =
  let v' = Mutation.mutate Mutation.Off_by_one v in
  match (v, v') with
  | Sval.I n, Sval.I n' -> n' = n + 1
  | Sval.S s, Sval.S s' ->
    String.length s = String.length s'
    && (String.equal s "" = String.equal s' "")
    && (String.for_all
          (fun c -> not (Ldx_core.Mutation.bump_alnum c <> c))
          s
        || not (String.equal s s'))
  | _ -> false

(* P10: VFS model check — random create/write/append/unlink sequences
   against a simple association-list model. *)
type vfs_op =
  | Op_write of string * string
  | Op_append of string * string
  | Op_unlink of string
  | Op_read of string

let gen_vfs_ops =
  let open QCheck2.Gen in
  let path = map (fun i -> Printf.sprintf "/f%d" i) (int_range 0 4) in
  let data = string_size ~gen:(char_range 'a' 'e') (int_range 0 4) in
  list_size (int_range 1 40)
    (oneof
       [ map2 (fun p d -> Op_write (p, d)) path data;
         map2 (fun p d -> Op_append (p, d)) path data;
         map (fun p -> Op_unlink p) path;
         map (fun p -> Op_read p) path ])

let prop_vfs_model ops =
  let vfs = Ldx_osim.Vfs.create () in
  let model = Hashtbl.create 8 in
  List.for_all
    (fun op ->
       match op with
       | Op_write (p, d) ->
         (match Ldx_osim.Vfs.write_file vfs p d with
          | Ok () -> Hashtbl.replace model p d; true
          | Error _ -> false)
       | Op_append (p, d) ->
         (match Ldx_osim.Vfs.append_file vfs p d with
          | Ok () ->
            let prev = try Hashtbl.find model p with Not_found -> "" in
            Hashtbl.replace model p (prev ^ d);
            true
          | Error _ -> false)
       | Op_unlink p ->
         let existed = Hashtbl.mem model p in
         (match Ldx_osim.Vfs.unlink vfs p with
          | Ok () -> Hashtbl.remove model p; existed
          | Error _ -> not existed)
       | Op_read p ->
         (match (Ldx_osim.Vfs.read_file vfs p, Hashtbl.find_opt model p) with
          | Ok d, Some d' -> String.equal d d'
          | Error _, None -> true
          | Ok _, None | Error _, Some _ -> false))
    ops

let tests =
  [ qtest "P1 instrumentation total" Gen_minic.gen_program
      prop_instrumentation_total;
    qtest "P2 instrumentation transparent" Gen_minic.gen_program
      prop_instrumentation_transparent;
    qtest "P3 alignment complete (no mutation => no diffs)"
      Gen_minic.gen_program prop_alignment_complete;
    qtest "P4 divergence tolerated" Gen_minic.gen_program
      prop_divergence_tolerated;
    qtest "P5 deterministic" Gen_minic.gen_program prop_deterministic;
    qtest "P6 no leak => equal outputs" Gen_minic.gen_program
      prop_no_leak_means_equal_outputs;
    qtest "P11 vacuous mutation => aligned" Gen_minic.gen_program
      prop_vacuous_mutation_aligned;
    qtest "P12 taint interpreter equivalent" Gen_minic.gen_program
      prop_taint_interpreter_equivalent;
    qtest "P12 taint equivalent on threaded programs"
      Gen_minic.gen_conc_program prop_taint_interpreter_equivalent;
    qtest "P12 taint equivalent on stress programs"
      Gen_minic.gen_stress_program prop_taint_interpreter_equivalent;
    Alcotest.test_case "P12 taint reaches sinks" `Quick
      test_taint_reaches_sinks;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"P13 concurrent alignment" ~count:100
         ~print:(fun (p, ms, ss) ->
             Printf.sprintf "seeds %d/%d\n%s" ms ss (Gen_minic.print_program p))
         gen_conc_with_seeds prop_concurrent_alignment);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"P7 parser/printer roundtrip" ~count:300
         ~print:(fun f -> Printer.to_string { Ast.funcs = [ f ] })
         Gen_minic.gen_any_fundef prop_roundtrip);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"P8a progress order reflexive/antisym"
         ~count:500
         (QCheck2.Gen.pair gen_position gen_position)
         prop_align_reflexive_antisym);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"P8b progress order total on skeleton"
         ~count:500 gen_skeleton_positions prop_align_total_on_skeleton);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"P9 mutation sanity" ~count:500 gen_sval
         prop_mutation_sane);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"P10 vfs model" ~count:200 gen_vfs_ops
         prop_vfs_model) ]
