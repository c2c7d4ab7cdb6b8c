(* ldx_fuzz: standalone invariant fuzzer for the alignment machinery.

     dune exec bin/ldx_fuzz.exe -- --runs 2000 --seed 7

   Generates random structured MiniC programs (the same generator the
   property suite uses, from ldx.genprog) and checks, per program:
   - instrumentation is semantically transparent (P2),
   - no-mutation dual execution aligns perfectly (P3),
   - mutation never makes the slave trap (P4),
   - random race-free concurrent programs align under random seeds (P13).

   Exits non-zero and prints the offending program on the first failure —
   useful for long soak runs beyond the CI-sized qcheck budgets. *)

open Cmdliner
module Gen_minic = Ldx_genprog.Gen_minic
module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Mutation = Ldx_core.Mutation
module Sched_sweep = Ldx_core.Sched_sweep
module Counter = Ldx_instrument.Counter
module Lower = Ldx_cfg.Lower
module Driver = Ldx_vm.Driver
module World = Ldx_osim.World
module Fault = Ldx_osim.Fault
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry
module Store = Ldx_store.Store

let test_world =
  World.(
    empty
    |> with_endpoint "in" [ "3"; "14"; "15"; "9"; "2"; "6"; "5"; "35"; "8" ])

type failure = { f_check : string; f_detail : string; f_program : string }

(* The alignment checks run both passes here: [Engine.run] derives the
   slave of a run no source reaches from the master's log, which would
   agree with its master by construction. *)
let executed config prog world =
  Engine.run_with_master config prog world
    (Engine.master_pass config prog world)

let check_program (p : Ldx_lang.Ast.program) : failure option =
  let src = Gen_minic.print_program p in
  let fail f_check f_detail = Some { f_check; f_detail; f_program = src } in
  let plainp = Lower.lower_program p in
  let instp, _ = Counter.instrument (Lower.lower_program p) in
  let plain = Driver.run plainp test_world in
  let inst = Driver.run instp test_world in
  if plain.Driver.trap <> None || inst.Driver.trap <> None then
    fail "transparency" "a native run trapped"
  else if not (String.equal plain.Driver.stdout inst.Driver.stdout) then
    fail "transparency" "instrumentation changed the output"
  else begin
    let no_mut = { Engine.default_config with Engine.sources = [] } in
    let r = executed no_mut instp test_world in
    if r.Engine.syscall_diffs <> 0 || r.Engine.leak then
      fail "alignment"
        (Printf.sprintf "diffs=%d leak=%b" r.Engine.syscall_diffs r.Engine.leak)
    else begin
      let mut =
        { Engine.default_config with
          Engine.sources = [ Engine.source ~sys:"recv" () ] }
      in
      let r = Engine.run ~config:mut instp test_world in
      match r.Engine.slave.Engine.trap with
      | Some m -> fail "divergence tolerance" ("slave trapped: " ^ m)
      | None -> None
    end
  end

let check_concurrent (p : Ldx_lang.Ast.program) ms ss : failure option =
  let src = Gen_minic.print_program p in
  let instp, _ = Counter.instrument (Lower.lower_program p) in
  let config =
    { Engine.default_config with
      Engine.sources = []; Engine.master_seed = ms; slave_seed = ss }
  in
  let r = executed config instp World.empty in
  if r.Engine.syscall_diffs <> 0 || r.Engine.leak
     || r.Engine.slave.Engine.trap <> None
  then
    Some
      { f_check = Printf.sprintf "concurrent alignment (seeds %d/%d)" ms ss;
        f_detail =
          Printf.sprintf "diffs=%d leak=%b trap=%s" r.Engine.syscall_diffs
            r.Engine.leak
            (Option.value ~default:"-" r.Engine.slave.Engine.trap);
        f_program = src }
  else None

(* Chaos check: with ZERO sources every syscall couples, so the slave
   replays the master's faulted outcome log verbatim — any report, diff
   or leak under an arbitrary fault plan is a FALSE POSITIVE in the
   causality inference (Sec. 4 soundness).  Hunting these is the point
   of chaos mode. *)
let check_chaos (p : Ldx_lang.Ast.program) (plan : Fault.t) : failure option =
  let src = Gen_minic.print_program p in
  let instp, _ = Counter.instrument (Lower.lower_program p) in
  let config =
    { Engine.default_config with
      Engine.sources = []; Engine.faults = Some plan }
  in
  let r = executed config instp test_world in
  if r.Engine.leak || r.Engine.reports <> [] || r.Engine.syscall_diffs <> 0
  then
    Some
      { f_check = "chaos false positive";
        f_detail =
          Printf.sprintf "plan=[%s] leak=%b reports=%d diffs=%d"
            (Fault.to_string plan) r.Engine.leak
            (List.length r.Engine.reports) r.Engine.syscall_diffs;
        f_program = src }
  else if
    r.Engine.master.Engine.faults_injected
    <> r.Engine.slave.Engine.faults_injected
  then
    Some
      { f_check = "chaos fault-schedule divergence";
        f_detail =
          Printf.sprintf "plan=[%s] master injected %d, slave injected %d"
            (Fault.to_string plan) r.Engine.master.Engine.faults_injected
            r.Engine.slave.Engine.faults_injected;
        f_program = src }
  else None

(* Incremental-campaign identity: a strategy-sweep campaign over the
   generated program, run once with full slave passes and once with the
   shared prefix snapshotted and only suffixes replayed, must render
   byte-identical tables.  Any divergence means a snapshot missed state
   (or restored it wrong) — the core soundness bar of lib/snap. *)
let check_incremental (p : Ldx_lang.Ast.program) : failure option =
  let src = Gen_minic.print_program p in
  let instp, _ = Counter.instrument (Lower.lower_program p) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ] }
  in
  let params = Campaign.of_strategies config Mutation.all_strategies in
  let full =
    Campaign.render (Campaign.run ~config instp test_world params)
  in
  let incr =
    Campaign.render
      (Campaign.run ~incremental:true ~config instp test_world params)
  in
  if String.equal full incr then None
  else
    Some
      { f_check = "incremental campaign identity";
        f_detail =
          Printf.sprintf "tables differ\n--- full ---\n%s--- incremental ---\n%s"
            full incr;
        f_program = src }

type task =
  | Check_seq of Ldx_lang.Ast.program
  | Check_conc of Ldx_lang.Ast.program * int * int
  | Check_chaos of Ldx_lang.Ast.program * Fault.t
  | Check_incr of Ldx_lang.Ast.program

let check_task = function
  | Check_seq p -> check_program p
  | Check_conc (p, ms, ss) -> check_concurrent p ms ss
  | Check_chaos (p, plan) -> check_chaos p plan
  | Check_incr p -> check_incremental p

(* Programs and scheduler seeds are drawn up front from the one seeded
   generator state, so the task list — and therefore any reported
   counterexample — is identical whatever [jobs] is. *)
let make_tasks runs rand =
  let sequential = QCheck2.Gen.generate ~n:runs ~rand Gen_minic.gen_program in
  let concurrent =
    QCheck2.Gen.generate ~n:runs ~rand Gen_minic.gen_conc_program
  in
  Array.of_list
    (List.map (fun p -> Check_seq p) sequential
     @ List.map
         (fun p ->
            Check_conc
              (p, Random.State.int rand 1000, Random.State.int rand 1000))
         concurrent)

(* Chaos tasks: each program is paired with a fresh random fault plan
   drawn from the same generator state — sweeping the (program, plan)
   product space hunting false positives. *)
let make_chaos_tasks runs rand =
  let programs = QCheck2.Gen.generate ~n:runs ~rand Gen_minic.gen_program in
  Array.of_list
    (List.map (fun p -> Check_chaos (p, Fault.random ~rand ())) programs)

(* Incremental tasks: sequential and concurrent programs both, since
   snapshots must capture scheduler and blocked-thread state too. *)
let make_incr_tasks runs rand =
  let sequential = QCheck2.Gen.generate ~n:runs ~rand Gen_minic.gen_program in
  let concurrent =
    QCheck2.Gen.generate ~n:runs ~rand Gen_minic.gen_conc_program
  in
  Array.of_list (List.map (fun p -> Check_incr p) (sequential @ concurrent))

(* ------------------------------------------------------------------ *)
(* Durable soak runs: journal each check's outcome through the same
   checksummed store the campaign layer uses, so a long fuzz killed at
   any point resumes from the last flushed record instead of repaying
   hours of checking.  The fingerprint pins (runs, seed, class): the
   task list is a pure function of those, so matching fingerprints mean
   identical task arrays and journaled indexes replay soundly. *)

let fuzz_fingerprint ~runs ~seed ~cls =
  Store.fingerprint [ "ldx-fuzz/1"; string_of_int runs; string_of_int seed; cls ]

let encode_outcome = function
  | None -> "ok"
  | Some f ->
    (* the store escapes payloads, so embedded newlines are safe *)
    String.concat "\n" [ "fail"; f.f_check; f.f_detail; f.f_program ]

let decode_outcome payload : failure option option =
  if payload = "ok" then Some None
  else
    match String.split_on_char '\n' payload with
    | "fail" :: f_check :: f_detail :: rest ->
      Some (Some { f_check; f_detail; f_program = String.concat "\n" rest })
    | _ -> None

(* raised when a drain left a task before the earliest failure
   unchecked; every completed check is already journaled write-through,
   so --resume continues from exactly the interruption point *)
exception Drained

(* Check every task [outcomes] has no entry for ([Some o] = already
   checked, e.g. replayed from a journal) over [jobs] domains, appending
   each fresh outcome to [journal] as it finishes.  A task at or past
   the earliest failure found so far is skipped and every task before
   it is checked, so the reported counterexample is the earliest one —
   the same at any [jobs] and wherever earlier runs were killed. *)
let check_tasks ~jobs ~stop ~journal ~outcomes (tasks : task array) :
  (int * failure) option =
  let n = Array.length tasks in
  let first_fail = Atomic.make max_int in
  let note i o =
    outcomes.(i) <- Some o;
    if o <> None && i < Atomic.get first_fail then Atomic.set first_fail i
  in
  Array.iteri (fun i -> Option.iter (note i)) outcomes;
  let missing =
    List.filter (fun i -> outcomes.(i) = None) (List.init n Fun.id)
  in
  Campaign.fan_out ~jobs ~stop (Array.of_list missing)
    ~run:(fun i ->
        if i < Atomic.get first_fail then Some (check_task tasks.(i)) else None)
    ~record:(fun i ->
        Option.iter (fun o ->
            Option.iter (fun t -> Store.append t i (encode_outcome o)) journal;
            note i o));
  let rec earliest i =
    if i >= n then None
    else
      match outcomes.(i) with
      | Some (Some f) -> Some (i, f)
      | Some None -> earliest (i + 1)
      | None -> raise Drained
  in
  earliest 0

(* Checkpoint the journal at [path] and run [check_tasks] over it; on
   [resume], first validate its fingerprint and replay its outcomes. *)
let check_journaled ~path ~resume ~fp ~jobs ~stop (tasks : task array) :
  ((int * failure) option, string) result =
  let n = Array.length tasks in
  let pre =
    if not resume then Ok []
    else
      match Store.load ~path with
      | Error e -> Error e
      | Ok l ->
        if l.Store.l_manifest.Store.fingerprint <> fp then
          Error
            (path
             ^ ": fingerprint mismatch: the journal was written by a \
                different fuzz configuration (runs/seed/class)")
        else
          Ok
            (List.filter_map
               (fun (i, payload) ->
                  if i < 0 || i >= n then None
                  else
                    Option.map (fun o -> (i, payload, o))
                      (decode_outcome payload))
               l.Store.l_outcomes)
  in
  match pre with
  | Error e -> Error e
  | Ok pre ->
    let manifest =
      { Store.fingerprint = fp;
        meta = [ ("tasks", string_of_int n) ];
        tasks = List.init n (Printf.sprintf "task#%d") }
    in
    let store =
      Store.checkpoint ~path manifest (List.map (fun (i, p, _) -> (i, p)) pre)
    in
    let outcomes = Array.make n None in
    List.iter (fun (i, _, o) -> outcomes.(i) <- Some o) pre;
    if resume then
      Printf.eprintf "ldx_fuzz: %s: replaying %d/%d checked tasks\n%!" path
        (Array.fold_left (fun c o -> if o = None then c else c + 1) 0 outcomes)
        n;
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    Ok (check_tasks ~jobs ~stop ~journal:(Some store) ~outcomes tasks)

let runs_arg =
  Arg.(value & opt int 500 & info [ "runs" ] ~docv:"N" ~doc:"Programs per class.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Check programs over $(docv) domains.  The reported \
               counterexample (if any) is the same for every job count.")

let chaos_arg =
  Arg.(value & flag
       & info [ "chaos" ]
         ~doc:"Chaos mode: pair each generated program with a random \
               deterministic fault plan (error returns, short reads, \
               drops, clock skew) and check that zero sources still \
               yields zero reports — any leak is a false positive in \
               the causality inference.")

let incremental_arg =
  Arg.(value & flag
       & info [ "incremental" ]
         ~doc:"Incremental-campaign mode: for each generated program \
               (sequential and concurrent), run a strategy-sweep \
               campaign with full slave passes and again with \
               decouple-point snapshots replaying only each task's \
               suffix, and check the rendered tables are \
               byte-identical.  Any difference is a snapshot \
               soundness bug.")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
         ~doc:"Journal each check's outcome to $(docv) (checksummed, \
               flushed per record) so a long soak run killed at any \
               point resumes with --resume.  Journaled checks honour \
               --jobs.")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
         ~doc:"With --journal: replay journaled outcomes and check only \
               the tasks that never made it to disk.  Requires the same \
               --runs/--seed/--chaos as the journaled run.")

let sched_explore_arg =
  Arg.(value & opt (some int) None
       & info [ "sched-explore" ] ~docv:"BOUND"
         ~doc:"Schedule-exploration mode: for every Table 4 concurrency \
               workload, enumerate interleavings with up to $(docv) \
               forced preemptions (iterative context bounding) and \
               check that zero-source runs report nothing under EVERY \
               explored schedule while the injected leak is detected \
               under every one.  Deterministic output; exits non-zero \
               on the first violation.")

(* Schedule-exploration mode: the schedule-lifted soundness sweep over
   the concurrency corpus.  Fully deterministic (the enumerator is
   breadth-first and seedless), so its output doubles as a regression
   fixture. *)
let explore_schedules bound =
  let violations = ref 0 in
  let total = ref 0 in
  Printf.printf "sched-explore: bound=%d, max-schedules=32\n" bound;
  List.iter
    (fun (w : Workload.t) ->
       let prog, _ = Workload.instrumented w in
       let clean =
         Sched_sweep.explore ~bound ~config:(Workload.no_mutation_config w)
           prog w.Workload.world
       in
       let leaky =
         Sched_sweep.explore ~bound ~config:(Workload.leak_config w) prog
           w.Workload.world
       in
       total := !total + clean.Sched_sweep.schedules + leaky.Sched_sweep.schedules;
       let clean_ok =
         clean.Sched_sweep.schedules > 1 && clean.Sched_sweep.leaks = 0
       in
       let leak_ok =
         leaky.Sched_sweep.schedules > 1
         && leaky.Sched_sweep.leaks = leaky.Sched_sweep.schedules
       in
       if not (clean_ok && leak_ok) then incr violations;
       Printf.printf
         "%-8s: zero-source %s on %d schedules; leak under %d/%d schedules%s\n"
         w.Workload.name
         (if clean.Sched_sweep.leaks = 0 then "clean" else "LEAKED")
         clean.Sched_sweep.schedules leaky.Sched_sweep.leaks
         leaky.Sched_sweep.schedules
         (if clean_ok && leak_ok then "" else "  <- VIOLATION"))
    Registry.concurrency;
  if !violations = 0 then begin
    Printf.printf
      "ok: %d workloads, %d schedules explored, schedule invariants hold\n"
      (List.length Registry.concurrency)
      !total;
    `Ok ()
  end
  else `Error (false, "schedule invariant violated")

let fuzz runs seed jobs chaos incremental sched_explore journal resume =
  match sched_explore with
  | Some bound -> explore_schedules bound
  | None ->
  (* graceful drain for journaled runs: SIGTERM/SIGINT finish the
     in-flight check (already journaled write-through) and exit 21;
     --resume picks up from the interruption point.  Installed before
     generation so a drain during it is honoured too. *)
  let draining = Atomic.make false in
  (if journal <> None then begin
     let h = Sys.Signal_handle (fun _ -> Atomic.set draining true) in
     Sys.set_signal Sys.sigterm h;
     Sys.set_signal Sys.sigint h
   end);
  let rand = Random.State.make [| seed |] in
  let tasks =
    if chaos then make_chaos_tasks runs rand
    else if incremental then make_incr_tasks runs rand
    else make_tasks runs rand
  in
  let cls =
    if chaos then "chaos"
    else if incremental then "incremental"
    else "invariants"
  in
  let stop () = Atomic.get draining in
  let outcome =
    match journal with
    | Some path ->
      (match
         check_journaled ~path ~resume ~fp:(fuzz_fingerprint ~runs ~seed ~cls)
           ~jobs ~stop tasks
       with
       | outcome -> outcome
       | exception Drained ->
         Printf.eprintf
           "ldx_fuzz: drained on signal, progress journaled to %s\n%!" path;
         exit 21)
    | None ->
      if resume then Error "--resume requires --journal"
      else
        Ok
          (check_tasks ~jobs ~stop ~journal:None
             ~outcomes:(Array.make (Array.length tasks) None) tasks)
  in
  match outcome with
  | Error e -> `Error (false, e)
  | Ok None ->
    Printf.printf "ok: %d %s checked, all invariants hold\n"
      (Array.length tasks)
      (if chaos then "(program, fault plan) pairs"
       else if incremental then "incremental-campaign programs"
       else "programs");
    `Ok ()
  | Ok (Some (i, f)) ->
    Printf.printf "FAILURE after %d programs\ncheck:  %s\ndetail: %s\n\n%s\n"
      i f.f_check f.f_detail f.f_program;
    `Error (false, "invariant violated")

let cmd =
  let info =
    Cmd.info "ldx_fuzz" ~doc:"Fuzz the LDX alignment invariants"
  in
  Cmd.v info
    Term.(
      ret
        (const fuzz $ runs_arg $ seed_arg $ jobs_arg $ chaos_arg
         $ incremental_arg $ sched_explore_arg $ journal_arg $ resume_arg))

let () = exit (Cmd.eval cmd)
