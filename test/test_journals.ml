(* Journals written by an earlier build of the store and outcome codec.

   test/journals/ holds two store files that an earlier build wrote:

   - strategies-v1.journal: the crash-resume smoke's campaign
     (programs/auth_gate.minic, --sweep-strategies), killed by
     --abort-after 3, so three of its five outcomes are journaled;
   - service-v2.journal: a completed ldx_campaignd run of a 6-task
     slave-seed sweep over the Pbzip2 workload.

   Resuming the first and collecting the second must give tables
   byte-identical to an uninterrupted run, and every payload they hold
   must decode and re-encode to the same bytes.

   These files hold [Marshal]ed [Engine.result]s.  Once outcomes get an
   explicit, versioned encoding (ROADMAP, "Persistence"), a journal of
   this layout must be refused cleanly, and these tests become refusal
   tests.  The files are never regenerated to make a test pass. *)

module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Mutation = Ldx_core.Mutation
module Store = Ldx_store.Store
module World = Ldx_osim.World
module Workload = Ldx_workloads.Workload
module Obs = Ldx_obs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let read path = In_channel.with_open_bin path In_channel.input_all

(* Tests run from the build sandbox; test/dune declares the files.  A
   missing fixture fails: these journals are the guard against reading
   an earlier build's files wrongly, and must not turn into skips. *)
let fixture dir name =
  let tried =
    [ Filename.concat dir name; Filename.concat ("test/" ^ dir) name ]
  in
  match List.find_opt Sys.file_exists tried with
  | None ->
    Alcotest.failf "fixture not found (tried %s)" (String.concat ", " tried)
  | Some path -> path

let with_tmp f =
  let path = Filename.temp_file "ldx_test_journals" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Every journaled payload decodes, and the current encoder writes it
   back byte for byte. *)
let check_payloads_reencode path =
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check int "no torn records" 0 l.Store.l_torn;
    List.iter
      (fun (i, payload) ->
         match Campaign.decode_outcome payload with
         | None -> Alcotest.failf "task %d: outcome failed to decode" i
         | Some (s, a) ->
           check bool
             (Printf.sprintf "task %d re-encodes byte for byte" i)
             true
             (String.equal payload (Campaign.encode_outcome s a)))
      l.Store.l_outcomes

(* The campaign ldx_run builds from
     programs/auth_gate.minic --file /etc/passwd=hunter2
       --endpoint client=hunter2,wrongpw --source read@/etc/passwd
       --sink network --sweep-strategies
   Every string is cut from its argument as ldx_run cuts it: the
   fingerprint hashes [Marshal] images, and [Marshal] writes two uses
   of one shared literal (say, both "hunter2"s) differently from two
   separate strings. *)
let auth_gate_campaign src =
  let cut ch s =
    let i = String.index s ch in
    (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let sys, arg = cut '@' "read@/etc/passwd" in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys ~arg () ];
      sinks = Engine.Network_outputs }
  in
  let path, data = cut '=' "/etc/passwd=hunter2" in
  let name, msgs = cut '=' "client=hunter2,wrongpw" in
  let world =
    World.(
      empty
      |> with_file path data
      |> with_endpoint name (String.split_on_char ',' msgs))
  in
  let prog =
    fst (Ldx_instrument.Counter.instrument (Ldx_cfg.Lower.lower_source src))
  in
  (config, prog, world, Campaign.of_strategies config Mutation.all_strategies)

let test_resume_v1 () =
  let src_path = fixture "journals" "strategies-v1.journal" in
  let config, prog, world, params =
    auth_gate_campaign (read (fixture "../programs" "auth_gate.minic"))
  in
  check_payloads_reencode src_path;
  let reference = Campaign.run ~jobs:1 ~config prog world params in
  with_tmp @@ fun journal ->
  Out_channel.with_open_bin journal (fun oc ->
      output_string oc (read src_path));
  let rc = Obs.Recorder.create () in
  match
    Campaign.resume ~jobs:1 ~obs:(Obs.Recorder.sink rc) ~journal ~config prog
      world params
  with
  | Error e -> Alcotest.fail e
  | Ok outs ->
    let c = Obs.Metrics.counter (Obs.Recorder.snapshot rc) in
    check int "journaled outcomes replayed" 3 (c "store.replayed");
    check int "missing outcomes re-run" 2 (c "store.rerun");
    check string "table equals the uninterrupted run"
      (Campaign.render reference) (Campaign.render outs);
    (* the healed journal is the file an uninterrupted journaled run
       writes: the earlier build's three records and this build's two
       agree byte for byte *)
    with_tmp @@ fun fresh ->
    ignore (Campaign.run ~jobs:1 ~journal:fresh ~config prog world params);
    check string "resumed journal equals an uninterrupted one" (read fresh)
      (read journal)

let test_collect_v2 () =
  let path = fixture "journals" "service-v2.journal" in
  let w = Ldx_workloads.Registry.find_exn "Pbzip2" in
  let config = Workload.leak_config w in
  let prog = fst (Workload.instrumented w) in
  let world = w.Workload.world in
  let params = Campaign.of_seeds config (List.init 6 Fun.id) in
  check_payloads_reencode path;
  (match Store.load ~path with
   | Error e -> Alcotest.fail e
   | Ok l ->
     check string "fingerprint matches the campaign"
       (Campaign.fingerprint ~config prog world params)
       l.Store.l_manifest.Store.fingerprint);
  match Campaign.Service.collect ~path params with
  | Error e -> Alcotest.fail e
  | Ok outs ->
    check string "table equals the uninterrupted run"
      (Campaign.render (Campaign.run ~jobs:1 ~config prog world params))
      (Campaign.render outs)

(* [ldx_campaignd] collects a complete queue without starting a worker,
   so the worker's path over an earlier build's journal is covered
   here: a worker started on a copy of the completed service journal
   finds nothing to claim, reports [`Complete] and never records a
   master pass. *)
let test_worker_v2 () =
  let w = Ldx_workloads.Registry.find_exn "Pbzip2" in
  let config = Workload.leak_config w in
  let prog = fst (Workload.instrumented w) in
  let world = w.Workload.world in
  let params = Campaign.of_seeds config (List.init 6 Fun.id) in
  with_tmp @@ fun path ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (read (fixture "journals" "service-v2.journal")));
  Campaign.Service.init ~path ~config prog world params;
  let master_runs = ref 0 in
  let obs =
    Obs.Sink.of_fn (function
      | Obs.Event.Phase_begin Obs.Event.Master_run -> incr master_runs
      | _ -> ())
  in
  (match
     Campaign.Service.worker ~obs ~path ~owner:"w-test" ~ttl_us:5_000_000
       ~heartbeat_us:0 ~poll_us:1_000 ~config prog world params
   with
   | Ok `Complete -> ()
   | Ok `Drained -> Alcotest.fail "worker drained a complete queue"
   | Error e -> Alcotest.fail e);
  check int "no master pass recorded" 0 !master_runs

let tests =
  [ Alcotest.test_case "v1 journal of an earlier build resumes" `Quick
      test_resume_v1;
    Alcotest.test_case "v2 journal of an earlier build collects" `Quick
      test_collect_v2;
    Alcotest.test_case "v2 journal of an earlier build drains a worker"
      `Quick test_worker_v2 ]
