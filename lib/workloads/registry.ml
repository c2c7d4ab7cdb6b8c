(* The complete 28-benchmark registry (Table 1 order). *)

let spec = W_spec.all
let leak = W_leak.all
let vulnerable = W_vuln.all
let concurrency = W_conc.all

let all = spec @ leak @ vulnerable @ concurrency

let find name =
  List.find_opt (fun (w : Workload.t) -> String.equal w.Workload.name name) all

let find_exn name =
  match find name with
  | Some w -> w
  | None -> invalid_arg ("Registry.find_exn: unknown workload " ^ name)

(* The Fig. 6 performance subset: non-interactive programs, as in the
   paper (firefox and lynx are interactive; sysstat and mp3info are
   excluded there for trivial runtime — we keep them since all our
   runtimes are virtual). *)
let performance_set =
  List.filter (fun (w : Workload.t) -> not w.Workload.interactive) all
