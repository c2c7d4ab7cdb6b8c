(* VM golden test: the observables of the virtual machine on frozen
   inputs, MD5s over printed forms (never [Marshal] images, so the
   digests do not depend on the compiler version).

   - Corpus cases ([vm_corpus.txt]: generated programs committed as
     sources, each with the scheduler seed and policy of its native
     run).  A case has one digest per component:
     - [native]: the native run (stdout, trap, steps, cycles, syscalls,
       exit code, the syscall trace with counter, site and tid, and the
       full scheduling decision log);
     - [tracker]: the taint tracker's verdict (tainted and total sinks,
       tainted sites, stdout, trap);
     - [tracker-cost]: the tracker's cycles and steps;
     - [engine]: a dual run with both cost profiles attached (the
       result's counters, alignment trace, master schedule, every sink
       report and the rendered profiles).
     [tracker] and [tracker-cost] were recorded with the tracker
     running on this VM; CHANGES.md lists the cases that moved from
     the tracker's earlier digests, and why.
   - CI legs: [ldx_run --workload W --metrics --sched-record F] on five
     registry workloads and on Pbzip2 under the random policy; the
     digest covers stdout (without the line naming the schedule file),
     the exit status and the recorded schedule.
   - Fuel sweep: an infinite loop under every budget 1..200, with the
     trap, step count, decision count and recorded schedule of each.
   - Taint baselines ([taint-*] lines, a test of their own): Table 3
     and both case studies as rendered, and the verdict of each
     registry workload under each model with its leak sources.  Cost
     is left out of these.

   [vm_golden.txt] was recorded while an independent tree-walking
   stepper (since deleted) and the flat stepper agreed on every case:
   it is that stepper's frozen testimony.  Corpus and digests cannot be
   re-recorded, since nothing is left to check new ones against; a
   mismatch is a change of behaviour. *)

module Driver = Ldx_vm.Driver
module Engine = Ldx_core.Engine
module Tracker = Ldx_taint.Tracker
module World = Ldx_osim.World
module Sval = Ldx_osim.Sval
module Sched = Ldx_sched.Scheduler
module Schedule = Ldx_sched.Schedule
module Experiments = Ldx_report.Experiments
module Table = Ldx_report.Table
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry

let test_world =
  World.(
    empty
    |> with_endpoint "in" [ "3"; "14"; "15"; "9"; "2"; "6"; "5"; "35"; "8" ])

(* ------------------------------------------------------------------ *)
(* The corpus. *)

type case = {
  name : string;     (* GENERATOR-NNN, numbered per generator *)
  seed : int;
  policy : string;   (* rr | random | priority | forced | replay *)
  src : string;
}

let header = "=== "

(* Comment lines may precede the first case; a case's source runs from
   the line after its header to the next header, byte for byte. *)
let read_corpus () : case list =
  let text = In_channel.with_open_bin "vm_corpus.txt" In_channel.input_all in
  let n = String.length text in
  let line_end i =
    match String.index_from_opt text i '\n' with Some j -> j | None -> n
  in
  let rec headers i acc =
    if i >= n then List.rev acc
    else
      let j = line_end i in
      let acc =
        if String.starts_with ~prefix:header (String.sub text i (j - i)) then
          (i, j) :: acc
        else acc
      in
      headers (j + 1) acc
  in
  let counts = Hashtbl.create 3 in
  let rec cases = function
    | [] -> []
    | (i, j) :: rest ->
      let stop = match rest with (k, _) :: _ -> k | [] -> n in
      let gen, seed, policy =
        match
          String.split_on_char ' '
            (String.sub text (i + String.length header)
               (j - i - String.length header))
        with
        | [ gen; seed; policy ] -> (gen, int_of_string seed, policy)
        | _ -> failwith (Printf.sprintf "vm_corpus.txt: bad header at %d" i)
      in
      let k = Option.value ~default:0 (Hashtbl.find_opt counts gen) in
      Hashtbl.replace counts gen (k + 1);
      { name = Printf.sprintf "%s-%03d" gen k; seed; policy;
        src = String.sub text (j + 1) (max 0 (stop - j - 1)) }
      :: cases rest
  in
  cases (headers 0 [])

(* ------------------------------------------------------------------ *)
(* Printed forms. *)

let opt f = function None -> "-" | Some x -> f x

let decision_line buf (d : Sched.decision) =
  Printf.bprintf buf "decision %d chose %d quantum %d preempted %b of %d [%s]\n"
    d.Sched.d_index d.Sched.d_chosen d.Sched.d_quantum d.Sched.d_preempted
    d.Sched.d_nrunnable
    (String.concat " "
       (Array.to_list (Array.map string_of_int d.Sched.d_runnable)))

(* One native run under [spec], recorded; the driver's outcome and the
   decision log. *)
let native ~seed spec src =
  let sched = Sched.instantiate ~record:true spec in
  let o =
    Driver.run_source ~instrument:true ~seed ~sched ~record_trace:true src
      test_world
  in
  (o, sched)

let spec_of (c : case) =
  match c.policy with
  | "rr" -> Sched.legacy ~seed:c.seed
  | "random" -> Sched.spec ~seed:c.seed Sched.Random
  | "priority" -> Sched.spec ~seed:c.seed (Sched.Priority [ (c.seed mod 3, 1) ])
  | "forced" ->
    Sched.spec ~seed:c.seed
      (Sched.Forced [ (c.seed mod 5, 1); (5 + (c.seed mod 11), 2); (20, 0) ])
  | "replay" ->
    (* the round-robin run's own schedule *)
    let _, rr = native ~seed:c.seed (Sched.legacy ~seed:c.seed) c.src in
    Sched.spec ~seed:c.seed (Sched.Replay (Sched.to_schedule rr))
  | p -> failwith ("vm_corpus.txt: unknown policy " ^ p)

let render_native buf (c : case) =
  let o, sched = native ~seed:c.seed (spec_of c) c.src in
  Printf.bprintf buf "native stdout %S\ntrap %s\n" o.Driver.stdout
    (opt Fun.id o.Driver.trap);
  Printf.bprintf buf "steps %d cycles %d syscalls %d exit %s\n" o.Driver.steps
    o.Driver.cycles o.Driver.syscalls (opt string_of_int o.Driver.exit_code);
  List.iter
    (fun (t : Driver.trace_entry) ->
       Printf.bprintf buf "syscall %s(%s) = %s counter %d site %d tid %d\n"
         t.Driver.sys
         (Sval.list_to_string t.Driver.args)
         (Sval.to_string t.Driver.result)
         t.Driver.counter t.Driver.site t.Driver.tid)
    o.Driver.trace;
  Array.iter (decision_line buf) (Sched.trace sched)

(* A tracker result as its verdict and, apart, its cost. *)
let tracker_verdict (r : Tracker.result) =
  Printf.sprintf "tracker tainted %d of %d sites [%s]\nstdout %S\ntrap %s\n"
    r.Tracker.tainted_sinks r.Tracker.total_sinks
    (String.concat " " (List.map string_of_int r.Tracker.tainted_sites))
    r.Tracker.stdout
    (opt Fun.id r.Tracker.trap)

let tracker_cost (r : Tracker.result) =
  Printf.sprintf "tracker cycles %d steps %d\n" r.Tracker.cycles
    r.Tracker.steps

let summary buf side (s : Engine.exec_summary) =
  Printf.bprintf buf
    "%s cycles %d steps %d syscalls %d exit %s faults %d trap %s\nstdout %S\n"
    side s.Engine.cycles s.Engine.steps s.Engine.syscalls
    (opt string_of_int s.Engine.exit_code) s.Engine.faults_injected
    (opt Fun.id s.Engine.trap) s.Engine.stdout

let render_engine buf (c : case) =
  let config =
    { Engine.default_config with
      Engine.record_trace = true; record_sched = true }
  in
  let prof = Engine.fresh_profiles () in
  let r = Engine.run_source ~config ~prof c.src test_world in
  Printf.bprintf buf
    "engine leak %b tainted %d of %d diffs %d (%d before first) syscalls %d \
     mutated %d wall %d cnt avg %h max %d depth %d\n"
    r.Engine.leak r.Engine.tainted_sinks r.Engine.total_sinks
    r.Engine.syscall_diffs r.Engine.diffs_before_first_report
    r.Engine.total_syscalls r.Engine.mutated_inputs r.Engine.wall_cycles
    r.Engine.dyn_cnt_avg r.Engine.dyn_cnt_max r.Engine.max_seg_depth;
  summary buf "master" r.Engine.master;
  summary buf "slave" r.Engine.slave;
  List.iter
    (fun (t : Engine.trace_entry) ->
       let call =
         opt (fun (sys, args) -> sys ^ "(" ^ Sval.list_to_string args ^ ")")
       in
       Printf.bprintf buf "align %s %s master %s slave %s\n" t.Engine.t_pos
         (Engine.trace_action_to_string t.Engine.t_action)
         (call t.Engine.t_master) (call t.Engine.t_slave))
    r.Engine.trace;
  Buffer.add_string buf (opt Schedule.to_string r.Engine.master_schedule);
  List.iter
    (fun rep -> Printf.bprintf buf "report %s\n" (Engine.report_to_string rep))
    r.Engine.reports;
  Buffer.add_string buf
    (Ldx_prof.Report.render ~blocks:max_int
       (Ldx_prof.Report.of_profiles ~master:prof.Engine.prof_master
          ~slave:prof.Engine.prof_slave))

let md5 s = Digest.to_hex (Digest.string s)

let printout render x =
  let buf = Buffer.create 4096 in
  render buf x;
  Buffer.contents buf

let case_digests (c : case) =
  let native = printout render_native c in
  let r = Tracker.run_source c.src test_world in
  let engine = printout render_engine c in
  [ (c.name ^ ".native", md5 native);
    (c.name ^ ".tracker", md5 (tracker_verdict r));
    (c.name ^ ".tracker-cost", md5 (tracker_cost r));
    (c.name ^ ".engine", md5 engine) ]

(* ------------------------------------------------------------------ *)
(* CI legs: the shipped CLI, as a child process.  Tests run from the
   build sandbox, so the exe is a sibling build directory; [test/dune]
   declares the dependency. *)

let ldx_run_exe () =
  match
    List.find_opt Sys.file_exists [ "../bin/ldx_run.exe"; "bin/ldx_run.exe" ]
  with
  | Some exe -> exe
  | None -> Alcotest.fail "bin/ldx_run.exe is not built"

let ci_legs =
  List.map
    (fun w -> ("ci-" ^ w, [ "--workload"; w ]))
    [ "Ngircd"; "473.astar"; "401.bzip2"; "456.hmmer"; "400.perlbench" ]
  @ [ ("ci-Pbzip2-random",
       [ "--workload"; "Pbzip2"; "--sched"; "random"; "--sched-seed"; "3" ]) ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let leg_digest args =
  let out = Filename.temp_file "ldx_vm_golden" ".out" in
  let sched = Filename.temp_file "ldx_vm_golden" ".sched" in
  let remove f = try Sys.remove f with Sys_error _ -> () in
  Fun.protect ~finally:(fun () -> remove out; remove sched) @@ fun () ->
  let exe = ldx_run_exe () in
  let argv =
    Array.of_list ((exe :: args) @ [ "--metrics"; "--sched-record"; sched ])
  in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe argv Unix.stdin out_fd null in
  Unix.close out_fd;
  Unix.close null;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> "exit " ^ string_of_int n
    | Unix.WSIGNALED n -> "signal " ^ string_of_int n
    | Unix.WSTOPPED n -> "stopped " ^ string_of_int n
  in
  let stdout =
    String.split_on_char '\n' (read_file out)
    |> List.filter (fun l ->
        not (String.starts_with ~prefix:"schedule written to" l))
    |> String.concat "\n"
  in
  md5 (stdout ^ "\n" ^ status ^ "\n" ^ read_file sched)

(* ------------------------------------------------------------------ *)
(* Fuel sweep. *)

let fuel_digest () =
  let buf = Buffer.create 65536 in
  for max_steps = 1 to 200 do
    let sched = Sched.instantiate ~record:true (Sched.legacy ~seed:0) in
    let o =
      Driver.run_source ~max_steps ~sched
        {| fn main() { let i = 0; while (i >= 0) { i = i + 1; } } |}
        World.empty
    in
    Printf.bprintf buf "budget %d trap %s steps %d decisions %d\n%s" max_steps
      (opt Fun.id o.Driver.trap) o.Driver.steps (Sched.decisions sched)
      (Schedule.to_string (Sched.to_schedule sched))
  done;
  md5 (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Taint baselines on the registry. *)

let taint_digests () =
  let verdict (w : Workload.t) (label, model) =
    let config =
      { Tracker.model; sources = w.Workload.leak_sources;
        sinks = w.Workload.sinks; max_steps = 30_000_000 }
    in
    let r = Tracker.run ~config (Workload.lower w) w.Workload.world in
    (Printf.sprintf "taint-%s.%s" w.Workload.name label,
     md5 (tracker_verdict r))
  in
  [ ("taint-table3", md5 (Table.render (Experiments.table3 ())));
    ("taint-case-gcc", md5 (Experiments.case_gcc ()));
    ("taint-case-firefox", md5 (Experiments.case_firefox ())) ]
  @ List.concat_map
    (fun w ->
       List.map (verdict w)
         [ ("taintgrind", Tracker.Taintgrind); ("libdft", Tracker.Libdft) ])
    Registry.all

(* ------------------------------------------------------------------ *)

let digests () =
  List.concat_map case_digests (read_corpus ())
  @ List.map (fun (name, args) -> (name, leg_digest args)) ci_legs
  @ [ ("fuel-sweep", fuel_digest ()) ]

let is_taint (name, _) = String.starts_with ~prefix:"taint-" name

let golden () =
  In_channel.with_open_text "vm_golden.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
      match String.split_on_char ' ' l with
      | [ name; d ] -> Some (name, d)
      | _ -> None)

let check_digests what expected got =
  Alcotest.(check int) "case count" (List.length expected) (List.length got);
  let wrong =
    List.filter_map
      (fun ((n, d), (n', d')) ->
         if String.equal n n' && String.equal d d' then None
         else Some (Printf.sprintf "%s: golden %s, got %s %s" n d n' d'))
      (List.combine expected got)
  in
  Alcotest.(check (list string)) what [] wrong

let test_golden () =
  check_digests "VM digests"
    (List.filter (fun l -> not (is_taint l)) (golden ()))
    (digests ())

let test_taint_golden () =
  check_digests "taint digests" (List.filter is_taint (golden ()))
    (taint_digests ())

let tests =
  [ Alcotest.test_case "VM matches golden digests" `Quick test_golden;
    Alcotest.test_case "taint baselines match golden digests" `Quick
      test_taint_golden ]
