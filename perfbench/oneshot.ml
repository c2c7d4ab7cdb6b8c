(* The ldx_run path: one verdict per request, Engine.run_source over
   one of the 77 (registry program, config) kinds — every program's
   leak and no-mutation configs plus the 21 benign configs.  A leak
   config must report a leak; no-mutation and benign configs must stay
   silent. *)

open Common
module Workload = Ldx_workloads.Workload
module Registry = Ldx_workloads.Registry

type kind = {
  w : Workload.t;
  config_name : string;
  config : Engine.config;
  expected : string;
}

let kinds () =
  List.concat_map
    (fun (w : Workload.t) ->
       [ { w; config_name = "leak"; config = Workload.leak_config w;
           expected = "leak" };
         { w; config_name = "no-mutation";
           config = Workload.no_mutation_config w; expected = "silent" } ]
       @
       match Workload.benign_config w with
       | Some config ->
         [ { w; config_name = "benign"; config; expected = "silent" } ]
       | None -> [])
    Registry.all
  |> Array.of_list

let response (r : Engine.result) =
  { verdicts = 1;
    answer = (if r.Engine.leak then "leak" else "silent");
    leaks = (if r.Engine.leak then 1 else 0) }

let run_kind ?obs k =
  response
    (Engine.run_source ~config:k.config ?obs k.w.Workload.source
       k.w.Workload.world)

(* Engine.run_source, replayed call by call. *)
let traced_kind sp k =
  let span name layer f = Spans.span sp name layer f in
  let world = k.w.Workload.world in
  let ast =
    span "lang.parse" "lang" (fun () ->
        Ldx_lang.Parser.parse_exn k.w.Workload.source)
  in
  let plain =
    span "cfg.lower" "cfg" (fun () -> Ldx_cfg.Lower.lower_program ast)
  in
  let prog, _ =
    span "instrument.instrument" "instrument" (fun () ->
        Ldx_instrument.Counter.instrument plain)
  in
  let mo =
    span "engine.master" "engine" (fun () ->
        Engine.master_pass k.config prog world)
  in
  let r =
    span "engine.slave" "engine" (fun () ->
        Engine.run_with_master k.config prog world mo)
  in
  (r, plain, prog)

let setup ~tick ~warm ~seed:_ ~tmp:_ =
  let ks = kinds () in
  if warm then Array.iter (fun k -> tick (); ignore (run_kind k)) ks;
  { kinds = Array.length ks;
    describe =
      (fun i -> ks.(i).w.Workload.name ^ "/" ^ ks.(i).config_name);
    run = (fun i -> run_kind ks.(i));
    traced =
      (fun sp i ->
         let r, _, prog = traced_kind sp ks.(i) in
         ( response r,
           fun () ->
             probe sp "vm.flat_compile" (fun () ->
                 ignore (Ldx_vm.Machine.compile prog)) ));
    check =
      (fun i r ->
         if r.answer = ks.(i).expected then None
         else
           Some (Printf.sprintf "verdict %s, known answer %s" r.answer
                   ks.(i).expected));
    counts =
      (fun () -> count_cycle ks (fun _ obs k -> ignore (run_kind ~obs k))) }
