(* lib/queue + Campaign.Service: the cross-process campaign service.

   - lease arbitration is structural (first record in file order for an
     (index, epoch) wins) and claims never trust their pre-append read;
   - expiry is strict ([now > deadline]) and judged by the claimant;
     heartbeats extend every lease their owner holds;
   - a release hands a task back with no expiry charge; a reclaim
     charges the previous holder (the quarantine-escalation input);
   - outcomes are exactly-once: the first [o] record wins, duplicates
     from wrongly-reclaimed-but-alive workers are ignored;
   - kill-anywhere (qcheck): SIGKILL service workers at random points;
     every task still completes exactly once and the rendered table is
     byte-identical to an uninterrupted single-process run. *)

module Store = Ldx_store.Store
module Q = Ldx_queue.Queue
module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Counter = Ldx_instrument.Counter
module Lower = Ldx_cfg.Lower
module World = Ldx_osim.World

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let with_tmp f =
  let path = Filename.temp_file "ldx_test_queue" ".ldx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* a bare v2 queue of [n] tasks, no campaign semantics attached *)
let mk_queue ~path n =
  let manifest =
    { Store.fingerprint = Store.fingerprint [ "queue"; "test" ];
      meta = [ ("tasks", string_of_int n) ];
      tasks = List.init n (Printf.sprintf "task#%d") }
  in
  Store.close (Store.checkpoint_entries ~path manifest [])

let view path =
  match Q.load ~path with Ok v -> v | Error e -> Alcotest.fail e

(* a worker's journal handle, closed when [k] returns *)
let with_journal path k =
  let journal = Q.follow ~path in
  Fun.protect ~finally:(fun () -> Q.unfollow journal) (fun () -> k journal)

let claim_exn ~path ~owner ~now_us ~ttl_us =
  match Q.claim ~path ~owner ~now_us ~ttl_us () with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Claim / expiry / release semantics (deterministic clocks).          *)

let test_claim_fresh () =
  with_tmp @@ fun path ->
  mk_queue ~path 3;
  (match claim_exn ~path ~owner:"w1" ~now_us:1_000 ~ttl_us:500 with
   | Q.Claimed { index = 0; epoch = 0; reclaimed_from = None } -> ()
   | _ -> Alcotest.fail "expected a fresh claim of task 0");
  match (view path).Q.states.(0) with
  | Q.Leased { holder = "w1"; epoch = 0; deadline_us = 1_500 } -> ()
  | _ -> Alcotest.fail "expected w1's lease with deadline now+ttl"

let test_live_leases_mean_wait () =
  with_tmp @@ fun path ->
  mk_queue ~path 2;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  (* both tasks leased and neither expired — even AT the deadline,
     expiry is strict *)
  (match claim_exn ~path ~owner:"w2" ~now_us:100 ~ttl_us:100 with
   | Q.Wait -> ()
   | _ -> Alcotest.fail "expected Wait while live leases cover the queue");
  check int "nothing is done yet" 2 (Q.remaining (view path))

let test_expiry_reclaims_and_charges () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  (match claim_exn ~path ~owner:"w2" ~now_us:101 ~ttl_us:100 with
   | Q.Claimed { index = 0; epoch = 1; reclaimed_from = Some "w1" } -> ()
   | _ -> Alcotest.fail "expected a reclaim of w1's expired lease");
  let v = view path in
  check bool "w1 charged with the expiry" true
    (v.Q.expired_owners.(0) = [ "w1" ]);
  match v.Q.states.(0) with
  | Q.Leased { holder = "w2"; epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "expected w2 to hold epoch 1"

let test_heartbeat_extends () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  Q.heartbeat ~path ~owner:"w1" ~deadline_us:1_000 ();
  (* past the original deadline but inside the heartbeat's *)
  (match claim_exn ~path ~owner:"w2" ~now_us:500 ~ttl_us:100 with
   | Q.Wait -> ()
   | _ -> Alcotest.fail "heartbeat should have kept the lease alive");
  match claim_exn ~path ~owner:"w2" ~now_us:1_001 ~ttl_us:100 with
  | Q.Claimed { reclaimed_from = Some "w1"; _ } -> ()
  | _ -> Alcotest.fail "expected expiry once the heartbeat lapsed too"

let test_release_hands_back_without_charge () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  Q.release ~path ~index:0 ~owner:"w1" ~epoch:0 ();
  let v = view path in
  (match v.Q.states.(0) with
   | Q.Free { next_epoch = 1 } -> ()
   | _ -> Alcotest.fail "expected Free with the next epoch");
  check bool "a release is not an expiry" true (v.Q.expired_owners.(0) = []);
  (* the released task is immediately claimable, no waiting for TTL *)
  match claim_exn ~path ~owner:"w2" ~now_us:1 ~ttl_us:100 with
  | Q.Claimed { index = 0; epoch = 1; reclaimed_from = None } -> ()
  | _ -> Alcotest.fail "expected a fresh claim at the bumped epoch"

let test_outcome_first_wins () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  Q.complete ~path ~index:0 ~payload:"first" ();
  (* a slow worker whose lease was wrongly reclaimed reports late *)
  Q.complete ~path ~index:0 ~payload:"second" ();
  let v = view path in
  (match v.Q.states.(0) with
   | Q.Done { payload = "first" } -> ()
   | _ -> Alcotest.fail "expected the first outcome to win");
  check bool "queue complete, duplicate ignored" true
    (Q.is_complete v && Q.outcomes v = [ (0, "first") ]);
  match claim_exn ~path ~owner:"w" ~now_us:0 ~ttl_us:1 with
  | Q.Drained -> ()
  | _ -> Alcotest.fail "expected Drained on a complete queue"

(* Two workers race a claim for the same (index, epoch): the first
   record in file order wins, regardless of whose deadline is later. *)
let test_arbitration_first_record_wins () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  Q.append ~path
    (Store.Lease { index = 0; owner = "early"; epoch = 0; deadline_us = 10 });
  Q.append ~path
    (Store.Lease { index = 0; owner = "late"; epoch = 0; deadline_us = 99 });
  match (view path).Q.states.(0) with
  | Q.Leased { holder = "early"; epoch = 0; _ } -> ()
  | _ -> Alcotest.fail "expected the first record in file order to win"

(* ------------------------------------------------------------------ *)
(* Worker loop (in-process, deterministic clock).                      *)

let test_worker_runs_each_task_once () =
  with_tmp @@ fun path ->
  let n = 5 in
  mk_queue ~path n;
  let runs = Array.make n 0 in
  let outcome =
    with_journal path @@ fun journal ->
    Q.Worker.run ~now_us:(fun () -> 0) ~journal ~owner:"w1" ~ttl_us:1_000
      ~heartbeat_us:0 ~poll_us:1
      (fun i ->
         runs.(i) <- runs.(i) + 1;
         Printf.sprintf "out-%d" i)
  in
  check bool "worker drained the queue" true (outcome = Q.Worker.Complete);
  Array.iteri
    (fun i c -> check int (Printf.sprintf "task %d ran exactly once" i) 1 c)
    runs;
  let v = view path in
  check bool "every outcome journaled in task order" true
    (Q.outcomes v = List.init n (fun i -> (i, Printf.sprintf "out-%d" i)))

let test_worker_stop_drains_after_inflight () =
  with_tmp @@ fun path ->
  mk_queue ~path 3;
  let stop = ref false in
  let outcome =
    with_journal path @@ fun journal ->
    Q.Worker.run ~now_us:(fun () -> 0)
      ~stop:(fun () -> !stop)
      ~journal ~owner:"w1" ~ttl_us:1_000 ~heartbeat_us:0 ~poll_us:1
      (fun i ->
         (* a drain lands while task 0 is in flight *)
         stop := true;
         Printf.sprintf "out-%d" i)
  in
  check bool "worker reported a drain" true (outcome = Q.Worker.Drained);
  let v = view path in
  check bool "the in-flight task finished and was journaled" true
    (Q.outcomes v = [ (0, "out-0") ]);
  check int "the rest were never claimed" 2 (Q.remaining v)

let heartbeat_records path =
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    List.filter_map
      (function
        | Store.Heartbeat { owner; deadline_us } -> Some (owner, deadline_us)
        | Store.Outcome _ | Store.Lease _ | Store.Release _ -> None)
      l.Store.l_entries

(* An injected clock drives claims only: heartbeats must convince other
   processes' real-clock expiry checks, so their deadlines come from the
   real clock even when the worker runs on a fake one. *)
let test_worker_heartbeat_uses_real_clock () =
  with_tmp @@ fun path ->
  mk_queue ~path 1;
  let ttl_us = 1_000_000 in
  let before = Q.now_us () in
  let outcome =
    with_journal path @@ fun journal ->
    Q.Worker.run ~now_us:(fun () -> 0) ~journal ~owner:"w1" ~ttl_us
      ~heartbeat_us:1_000 ~poll_us:1
      (fun _ ->
         (* hold the task until the heartbeat domain has written *)
         let give_up = Unix.gettimeofday () +. 10. in
         while heartbeat_records path = [] && Unix.gettimeofday () < give_up do
           Unix.sleepf 0.001
         done;
         "done")
  in
  check bool "worker drained the queue" true (outcome = Q.Worker.Complete);
  match heartbeat_records path with
  | [] -> Alcotest.fail "no heartbeat was written"
  | hbs ->
    List.iter
      (fun (_, deadline_us) ->
         check bool "heartbeat deadline is real now + ttl" true
           (deadline_us >= before + ttl_us))
      hbs

(* ------------------------------------------------------------------ *)
(* Campaign service (in-process).                                      *)

let attribution_src =
  {| fn main() {
       let x = socket("x");
       let y = socket("y");
       let vx = recv(x);
       let vy = recv(y);
       send(x, vx);
       send(y, vy);
     } |}

let attribution_world =
  World.(empty |> with_endpoint "x" [ "11" ] |> with_endpoint "y" [ "22" ])

let instrumented src = fst (Counter.instrument (Lower.lower_source src))

let svc_config =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"recv" () ];
    sinks = Engine.Network_outputs }

let svc_params config = Campaign.of_seeds config [ 0; 1; 2; 3; 4; 5 ]

let run_service_worker ?stop ?runner ~path ~owner ~config prog params =
  Campaign.Service.worker ?stop ?runner ~path ~owner ~ttl_us:2_000_000
    ~heartbeat_us:0 ~poll_us:1_000 ~config prog attribution_world params

(* One service worker over an init'ed queue renders byte-identically to
   Campaign.run ~jobs:1, and re-init on the same file is idempotent
   (the supervisor-restart = resume path). *)
let test_service_matches_single_process () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  let params = svc_params config in
  let reference =
    Campaign.render (Campaign.run ~jobs:1 ~config prog attribution_world params)
  in
  Campaign.Service.init ~path ~config prog attribution_world params;
  (match run_service_worker ~path ~owner:"w1" ~config prog params with
   | Ok `Complete -> ()
   | Ok `Drained -> Alcotest.fail "worker drained unexpectedly"
   | Error e -> Alcotest.fail e);
  (match Campaign.Service.collect ~path params with
   | Error e -> Alcotest.fail e
   | Ok outs ->
     Alcotest.(check string) "service table byte-identical to --jobs 1"
       reference (Campaign.render outs));
  (* restarting the service on the same queue keeps the outcomes *)
  Campaign.Service.init ~path ~config prog attribution_world params;
  match Campaign.Service.collect ~path params with
  | Error e -> Alcotest.fail e
  | Ok outs ->
    Alcotest.(check string) "re-init preserved the finished campaign"
      reference (Campaign.render outs)

(* A worker launched against a queue initialized for a DIFFERENT
   campaign must refuse (fingerprint handshake). *)
let test_service_fingerprint_mismatch () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  Campaign.Service.init ~path ~config prog attribution_world
    (svc_params config);
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let before = read () in
  let other = Campaign.of_seeds config [ 9 ] in
  match run_service_worker ~path ~owner:"w1" ~config prog other with
  | Error e ->
    let prefix = path ^ ": fingerprint mismatch (journal " in
    check bool "the mismatch is named" true
      (String.starts_with ~prefix e);
    Alcotest.(check string) "the worker appended nothing" before (read ())
  | Ok _ -> Alcotest.fail "expected a fingerprint-mismatch error"

(* A worker reads its manifest through its handle, whose catch-up leaves
   an unterminated last line unread; on a journal that is not one it
   still reports what [Store.load] reports. *)
let test_service_worker_empty_journal () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  let expected = path ^ ": line 1: expected header \"# ldx-store/1\"" in
  (match Store.load ~path with
   | Error e -> Alcotest.(check string) "Store.load's error" expected e
   | Ok _ -> Alcotest.fail "an empty file is not a journal");
  match run_service_worker ~path ~owner:"w1" ~config prog (svc_params config)
  with
  | Error e -> Alcotest.(check string) "the worker's error" expected e
  | Ok _ -> Alcotest.fail "expected an error on an empty journal"

(* A task whose lease keeps expiring under distinct owners is parked as
   Quarantined by the supervisor's escalation sweep. *)
let test_service_escalation () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  let params = Campaign.of_seeds config [ 0 ] in
  Campaign.Service.init ~path ~config prog attribution_world params;
  (* three workers claim it and die (their leases expire unreleased) *)
  List.iteri
    (fun k owner ->
       let now_us = k * 101 in
       match claim_exn ~path ~owner ~now_us ~ttl_us:100 with
       | Q.Claimed _ -> ()
       | _ -> Alcotest.failf "claim %d should have succeeded" k)
    [ "w1"; "w2"; "w3" ];
  (* w1 and w2 are charged; w3's lease is still live *)
  (match Campaign.Service.escalate ~path ~kills:3 () with
   | Ok 0 -> ()
   | Ok n -> Alcotest.failf "escalated %d task(s) below the threshold" n
   | Error e -> Alcotest.fail e);
  (* the third expiry crosses the threshold *)
  (match claim_exn ~path ~owner:"w4" ~now_us:303 ~ttl_us:100 with
   | Q.Claimed _ -> ()
   | _ -> Alcotest.fail "fourth claim should have succeeded");
  (match Campaign.Service.escalate ~path ~kills:3 () with
   | Ok 1 -> ()
   | Ok n -> Alcotest.failf "expected one escalation, got %d" n
   | Error e -> Alcotest.fail e);
  let v = view path in
  check bool "task parked" true (Q.is_complete v);
  match v.Q.states.(0) with
  | Q.Done { payload } ->
    (match Campaign.decode_outcome payload with
     | Some (Campaign.Quarantined _, _) -> ()
     | _ -> Alcotest.fail "expected a Quarantined payload")
  | _ -> Alcotest.fail "expected Done"

(* Restarting the supervisor heals the journal; its heartbeats shrink
   to one per owner, at the owner's latest deadline, and the fold reads
   the healed file exactly as it read the original. *)
let test_service_heal_compacts_heartbeats () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  let params = svc_params config in
  Campaign.Service.init ~path ~config prog attribution_world params;
  ignore (claim_exn ~path ~owner:"w1" ~now_us:0 ~ttl_us:100);
  ignore (claim_exn ~path ~owner:"w2" ~now_us:0 ~ttl_us:100);
  List.iter
    (fun (owner, deadline_us) -> Q.heartbeat ~path ~owner ~deadline_us ())
    [ ("w1", 500); ("w2", 300); ("w1", 900); ("w3", 50); ("w1", 700);
      ("w2", 800) ];
  ignore (claim_exn ~path ~owner:"w3" ~now_us:0 ~ttl_us:100);
  let before = view path in
  Campaign.Service.init ~path ~config prog attribution_world params;
  check bool "the heal leaves the view as it was" true (view path = before);
  check bool "one heartbeat per owner, at its latest deadline" true
    (List.sort compare (heartbeat_records path)
     = [ ("w1", 900); ("w2", 800); ("w3", 50) ])

(* ------------------------------------------------------------------ *)
(* Following the journal.                                              *)

let read_all path = In_channel.with_open_bin path In_channel.input_all

let append_raw path s =
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc s)

(* Two followers claim in turn on one file.  [a]'s claim of (0, 0) is
   still in flight (all but its final newline on disk), so [b]'s
   follower cannot fold it and [b] picks task 0 too; [b]'s record lands
   second, terminating [a]'s.  The first record wins, [b] moves on, and
   both followers end up agreeing with a full read. *)
let test_followers_interleave_first_record_wins () =
  with_tmp @@ fun path ->
  mk_queue ~path 3;
  let fa = Q.follow ~path and fb = Q.follow ~path in
  Fun.protect ~finally:(fun () -> Q.unfollow fa; Q.unfollow fb) @@ fun () ->
  let claim f owner now_us =
    match Q.claim_with f ~owner ~now_us ~ttl_us:100 () with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let a_line =
    Store.entry_line
      (Store.Lease { index = 0; owner = "a"; epoch = 0; deadline_us = 100 })
  in
  append_raw path ("\n" ^ String.sub a_line 0 (String.length a_line - 1));
  (match claim fb "b" 0 with
   | Q.Claimed { index = 1; epoch = 0; reclaimed_from = None } -> ()
   | _ -> Alcotest.fail "b should lose task 0 to a's earlier record");
  (match claim fa "a" 0 with
   | Q.Claimed { index = 2; epoch = 0; reclaimed_from = None } -> ()
   | _ -> Alcotest.fail "a holds task 0, so its next claim is task 2");
  (match claim fb "b" 101 with
   | Q.Claimed { index = 0; epoch = 1; reclaimed_from = Some "a" } -> ()
   | _ -> Alcotest.fail "b should reclaim a's expired task 0");
  let full = view path in
  List.iter
    (fun f ->
       match Q.catch_up f with
       | Ok v -> check bool "follower view equals a full read" true (v = full)
       | Error e -> Alcotest.fail e)
    [ fa; fb ];
  check bool "a is charged with the expiry" true
    (full.Q.expired_owners.(0) = [ "a" ])

(* A worker's journal handle holds its descriptor between catch-ups and
   checks with one [stat] that the path still names that file.  When a
   checkpoint renames a new file into the path (Service.init healing
   the journal on a supervisor restart), the next catch-up must refold
   the new file, records appended to it included. *)
let test_handle_follows_checkpoint () =
  with_tmp @@ fun path ->
  let prog = instrumented attribution_src in
  let config = svc_config in
  let params = svc_params config in
  let init () =
    Campaign.Service.init ~path ~config prog attribution_world params
  in
  init ();
  with_journal path @@ fun journal ->
  let lease =
    Store.Lease { index = 0; owner = "w1"; epoch = 0; deadline_us = 100 }
  in
  let outcome = Store.Outcome { index = 0; payload = "done" } in
  ignore (Q.catch_up journal);
  Q.append ~path lease;
  ignore (Q.catch_up journal);
  let inode () = (Unix.stat path).Unix.st_ino in
  let before = inode () in
  init ();
  check bool "init renamed a new file into place" true (inode () <> before);
  Q.append ~path outcome;
  (match Store.load ~path with
   | Error e -> Alcotest.fail e
   | Ok l ->
     check bool "both records are in the file at the path" true
       (l.Store.l_entries = [ lease; outcome ] && l.Store.l_torn = 0));
  match Q.catch_up journal with
  | Ok v ->
    check bool "the handle refolds the new file" true (v = view path);
    check bool "the outcome is folded" true (Q.outcomes v = [ (0, "done") ])
  | Error e -> Alcotest.fail e

(* A truncated file keeps its identity but is shorter than the handle's
   offset: the next catch-up refolds it from the start. *)
let test_handle_follows_truncation () =
  with_tmp @@ fun path ->
  mk_queue ~path 2;
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let manifest_only = read () in
  with_journal path @@ fun journal ->
  let payload = "a \"quoted\"\npayload" in
  let outcome = Store.Outcome { index = 1; payload } in
  Q.append ~path
    (Store.Lease { index = 0; owner = "w1"; epoch = 0; deadline_us = 100 });
  Q.append ~path (Store.Heartbeat { owner = "w1"; deadline_us = 200 });
  ignore (Q.catch_up journal);
  Unix.truncate path (String.length manifest_only);
  Q.append ~path outcome;
  Alcotest.(check string) "the record lands at the new end"
    (manifest_only ^ "\n" ^ Store.entry_line outcome) (read ());
  match Q.catch_up journal with
  | Ok v ->
    check bool "the handle refolds the truncated file" true (v = view path);
    check bool "only the new record is folded" true
      (Q.outcomes v = [ (1, payload) ]
       && v.Q.states.(0) = Q.Free { next_epoch = 0 })
  | Error e -> Alcotest.fail e

type follow_op =
  | Append of Store.entry
  | Torn of Store.entry * int  (* a killed peer's "\n" ^ first k bytes *)
  | Catch_up
  | Recheckpoint               (* atomic rename: a new file at the path *)
  | Truncate of int            (* to this permille of the size *)

let show_op = function
  | Append e -> "append " ^ String.escaped (Store.entry_line e)
  | Torn (e, k) ->
    Printf.sprintf "torn %d of %s" k (String.escaped (Store.entry_line e))
  | Catch_up -> "catch-up"
  | Recheckpoint -> "re-checkpoint"
  | Truncate p -> Printf.sprintf "truncate to %d/1000" p

let follow_tasks = 3

(* v1 journals carry outcomes only; v2 every record kind, with indices
   one beyond the task range on both sides *)
let gen_follow_entry ~v1 =
  let open QCheck.Gen in
  let index = int_range (-1) follow_tasks in
  let owner = oneofl [ "w1"; "w2"; "w3" ] in
  let epoch = int_range 0 3 in
  let deadline = int_range 0 1_000 in
  let outcome =
    map2
      (fun index payload -> Store.Outcome { index; payload })
      index (oneofl [ "ok"; "two words"; "a\nb" ])
  in
  if v1 then outcome
  else
    frequency
      [ (4,
         map4
           (fun index owner epoch deadline_us ->
              Store.Lease { index; owner; epoch; deadline_us })
           index owner epoch deadline);
        (2,
         map2
           (fun owner deadline_us -> Store.Heartbeat { owner; deadline_us })
           owner deadline);
        (2,
         map3
           (fun index owner epoch -> Store.Release { index; owner; epoch })
           index owner epoch);
        (2, outcome) ]

let gen_follow_case =
  let open QCheck.Gen in
  let* v1 = bool in
  let entry = gen_follow_entry ~v1 in
  let op =
    frequency
      [ (5, map (fun e -> Append e) entry);
        (1,
         let* e = entry in
         let+ k = int_bound (String.length (Store.entry_line e) - 2) in
         Torn (e, k));
        (3, return Catch_up) ]
  in
  let* ops = list_size (int_bound 40) op in
  (* exactly one re-checkpoint and one truncation, anywhere *)
  let insert x ops =
    let+ at = int_bound (List.length ops) in
    List.filteri (fun i _ -> i < at) ops
    @ (x :: List.filteri (fun i _ -> i >= at) ops)
  in
  let* ops = insert Recheckpoint ops in
  let* permille = int_bound 1000 in
  let+ ops = insert (Truncate permille) ops in
  (v1, ops)

let arb_follow_case =
  QCheck.make gen_follow_case ~print:(fun (v1, ops) ->
      Printf.sprintf "%s: %s" (if v1 then "v1" else "v2")
        (String.concat "; " (List.map show_op ops)))

(* After every catch-up the follower's view equals Queue.view_of of a
   full Store.load of the file cut after its last newline. *)
let follower_matches_full_read (v1, ops) =
  with_tmp @@ fun path ->
  let manifest =
    { Store.fingerprint = Store.fingerprint [ "follow" ];
      meta = [ ("tasks", string_of_int follow_tasks) ];
      tasks = List.init follow_tasks (Printf.sprintf "task#%d") }
  in
  let checkpoint entries =
    Store.close
      (if v1 then
         Store.checkpoint ~path manifest
           (List.filter_map
              (function
                | Store.Outcome { index; payload } -> Some (index, payload)
                | _ -> None)
              entries)
       else Store.checkpoint_entries ~path manifest entries)
  in
  checkpoint [];
  let f = Q.follow ~path in
  Fun.protect ~finally:(fun () -> Q.unfollow f) @@ fun () ->
  with_tmp @@ fun cut_path ->
  let agrees () =
    let text = read_all path in
    let cut =
      match String.rindex_opt text '\n' with
      | Some i -> String.sub text 0 (i + 1)
      | None -> ""
    in
    Out_channel.with_open_bin cut_path (fun oc -> output_string oc cut);
    match (Q.catch_up f, Q.load ~path:cut_path) with
    | Ok v, Ok full -> v = full
    | Error _, Error _ -> true
    | Ok _, Error e | Error e, Ok _ ->
      QCheck.Test.fail_reportf "follower and full read disagree: %s" e
  in
  List.for_all
    (function
      | Append e -> append_raw path ("\n" ^ Store.entry_line e); true
      | Torn (e, k) ->
        append_raw path ("\n" ^ String.sub (Store.entry_line e) 0 k);
        true
      | Catch_up -> agrees ()
      | Recheckpoint ->
        checkpoint
          (match Store.load ~path with
           | Ok l -> l.Store.l_entries
           | Error _ -> []);
        true
      | Truncate permille ->
        Unix.truncate path ((Unix.stat path).Unix.st_size * permille / 1000);
        agrees ())
    ops
  && agrees ()

let follower_prop =
  QCheck.Test.make ~count:300
    ~name:"follower view = full read of the file cut after its last newline"
    arb_follow_case follower_matches_full_read

(* ------------------------------------------------------------------ *)
(* Kill-anywhere: SIGKILL real worker processes at random points.      *)

(* The actual service worker binary (OCaml 5 forbids [Unix.fork] in a
   process that ever created domains, and exercising the shipped
   binary is the stronger test anyway).  Tests run from the build
   sandbox, so the exe is a sibling build directory; [test/dune]
   declares the dependency. *)
let worker_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/ldx_worker.exe"; "bin/ldx_worker.exe" ]

(* A campaign slow enough (~2-3ms/task over 16 tasks) that SIGKILLs
   land mid-campaign and mid-task. *)
let kill_src =
  {| fn main() {
       let i = 0;
       while (i < 60000) { i = i + 1; }
       let x = socket("x");
       let y = socket("y");
       let vx = recv(x);
       let vy = recv(y);
       send(x, vx);
       send(y, vy);
     } |}

let kill_seeds = 16

(* One round: spawn a worker process on the queue, SIGKILL it after a
   random delay for the first few rounds, then let one run to
   completion (it has to wait out the dead workers' lease TTLs to
   reclaim their tasks).  Afterwards every task must hold exactly one
   outcome and the rendered table must be byte-identical to an
   uninterrupted single-process run. *)
let kill_anywhere_round seed =
  match worker_exe () with
  | None -> QCheck.assume_fail () (* exe not visible from this sandbox *)
  | Some exe ->
    with_tmp @@ fun path ->
    let prog_file = Filename.temp_file "ldx_test_queue" ".minic" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove prog_file with Sys_error _ -> ())
    @@ fun () ->
    Out_channel.with_open_text prog_file (fun oc ->
        output_string oc kill_src);
    let prog = instrumented kill_src in
    let config = svc_config in
    let params = Campaign.of_seeds config (List.init kill_seeds Fun.id) in
    let reference =
      Campaign.render
        (Campaign.run ~jobs:1 ~config prog attribution_world params)
    in
    Campaign.Service.init ~path ~config prog attribution_world params;
    let rand = Random.State.make [| seed |] in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    let spawn owner =
      (* short TTL so a SIGKILLed holder's tasks are reclaimable fast;
         the argv mirrors what ldx_campaignd passes its workers *)
      let argv =
        [| exe; "--queue"; path; "--owner"; owner; "--ttl-ms"; "60";
           "--heartbeat-ms"; "10"; "--poll-ms"; "2"; prog_file;
           "--endpoint"; "x=11"; "--endpoint"; "y=22"; "--sink"; "network";
           "--sweep-seeds"; string_of_int kill_seeds |]
      in
      Unix.create_process exe argv Unix.stdin null null
    in
    let rounds = ref 0 in
    while (not (Q.is_complete (view path))) && !rounds < 40 do
      incr rounds;
      let pid = spawn (Printf.sprintf "k%d.%d" seed !rounds) in
      if !rounds <= 3 then begin
        (* SIGKILL at a random point: during startup, mid-task, or
           (sometimes) after the worker already finished *)
        Unix.sleepf (0.005 +. Random.State.float rand 0.04);
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
      end;
      ignore (Unix.waitpid [] pid)
    done;
    let v = view path in
    if not (Q.is_complete v) then
      Alcotest.failf "queue incomplete after %d rounds" !rounds;
    (* exactly once: the fold holds one outcome per task *)
    if List.length (Q.outcomes v) <> List.length params then
      Alcotest.fail "outcome count differs from task count";
    match Campaign.Service.collect ~path params with
    | Error e -> Alcotest.fail e
    | Ok outs ->
      if Campaign.render outs <> reference then
        Alcotest.fail "killed-worker table differs from uninterrupted run";
      true

let kill_anywhere_prop =
  QCheck.Test.make ~count:3 ~name:"kill-anywhere: SIGKILL loses nothing"
    QCheck.small_nat kill_anywhere_round

(* The supervisor's CI crash hook on a campaign of a few milliseconds:
   every run must kill a worker and respawn it before the queue can
   finish, and render the uninterrupted table.  Sampling the journal
   alone lost that race whenever the campaign finished before the
   supervisor's first tick. *)
let supervisor_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/ldx_campaignd.exe"; "bin/ldx_campaignd.exe" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let crash_hook_seeds = 12

(* Run [ldx_campaignd] with the crash hook armed after 2 outcomes on a
   [crash_hook_seeds]-task campaign of [attribution_src], workers
   started through [worker_exe]; check that it exits 0, logs its
   victim's death by SIGKILL (by name, not OCaml's signal number),
   respawns it and prints the uninterrupted table, and return the
   queue's final view. *)
let run_crash_hook ~label ~exe ?worker_exe () =
  let prog_file = Filename.temp_file "ldx_test_queue" ".minic" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove prog_file with Sys_error _ -> ())
  @@ fun () ->
  Out_channel.with_open_text prog_file (fun oc ->
      output_string oc attribution_src);
  let reference =
    Campaign.render
      (Campaign.run ~jobs:1 ~config:svc_config
         (instrumented attribution_src) attribution_world
         (Campaign.of_seeds svc_config (List.init crash_hook_seeds Fun.id)))
  in
  with_tmp @@ fun path ->
  with_tmp @@ fun out ->
  with_tmp @@ fun err ->
  let fd name = Unix.openfile name [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let out_fd = fd out and err_fd = fd err in
  let argv =
    Array.concat
      [ [| exe; "--queue"; path; "--workers"; "3";
           "--kill-after-outcomes"; "2"; "--ttl-ms"; "100";
           "--heartbeat-ms"; "20"; "--poll-ms"; "2";
           "--respawn-backoff-ms"; "1" |];
        (match worker_exe with
         | Some w -> [| "--worker-exe"; w |]
         | None -> [||]);
        [| prog_file; "--endpoint"; "x=11"; "--endpoint"; "y=22";
           "--sink"; "network"; "--sweep-seeds";
           string_of_int crash_hook_seeds |] ]
  in
  let pid = Unix.create_process exe argv Unix.stdin out_fd err_fd in
  let _, status = Unix.waitpid [] pid in
  Unix.close out_fd;
  Unix.close err_fd;
  let log = read_file err in
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length log
      && (String.sub log i n = needle || go (i + 1))
    in
    go 0
  in
  check bool (label ^ " exits 0") true (status = Unix.WEXITED 0);
  check bool (label ^ " respawns the victim") true (has "respawned worker");
  check bool (label ^ " names the victim's signal") true
    (has "died (SIGKILL)");
  check Alcotest.string (label ^ " table") reference (read_file out);
  match Q.load ~path with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

let test_crash_hook_always_respawns () =
  match supervisor_exe () with
  | None -> Alcotest.skip ()
  | Some exe ->
    for round = 1 to 3 do
      ignore
        (run_crash_hook ~label:(Printf.sprintf "round %d" round) ~exe ()
         : Q.view)
    done

(* The gate is a lease like any other: the supervisor must keep it
   alive by heartbeats.  Workers that take three TTLs to start would
   otherwise find it expired, reclaim its task and charge the
   supervisor with a kill. *)
let test_crash_hook_gate_outlives_ttl () =
  match supervisor_exe (), worker_exe () with
  | None, _ | _, None -> Alcotest.skip ()
  | Some exe, Some worker ->
    let worker =
      if Filename.is_relative worker then Filename.concat (Sys.getcwd ()) worker
      else worker
    in
    let wrapper = Filename.temp_file "ldx_test_queue" ".sh" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove wrapper with Sys_error _ -> ())
    @@ fun () ->
    Out_channel.with_open_text wrapper (fun oc ->
        Printf.fprintf oc "#!/bin/sh\nsleep 0.3\nexec %s \"$@\"\n"
          (Filename.quote worker));
    Unix.chmod wrapper 0o755;
    let v = run_crash_hook ~label:"slow start" ~exe ~worker_exe:wrapper () in
    Array.iteri
      (fun i owners ->
         List.iter
           (fun o ->
              if String.starts_with ~prefix:"hook." o then
                Alcotest.failf "task %d: the gate expired (%s charged)" i o)
           owners)
      v.Q.expired_owners

(* ------------------------------------------------------------------ *)

let tests =
  [ Alcotest.test_case "fresh claim wins task 0" `Quick test_claim_fresh;
    Alcotest.test_case "live leases mean Wait (expiry is strict)" `Quick
      test_live_leases_mean_wait;
    Alcotest.test_case "expiry reclaims and charges the holder" `Quick
      test_expiry_reclaims_and_charges;
    Alcotest.test_case "heartbeats extend leases" `Quick
      test_heartbeat_extends;
    Alcotest.test_case "release hands back without charge" `Quick
      test_release_hands_back_without_charge;
    Alcotest.test_case "first outcome wins, duplicates ignored" `Quick
      test_outcome_first_wins;
    Alcotest.test_case "claim races: first record in file order wins" `Quick
      test_arbitration_first_record_wins;
    Alcotest.test_case "worker runs each task exactly once" `Quick
      test_worker_runs_each_task_once;
    Alcotest.test_case "worker stop = drain after the in-flight task" `Quick
      test_worker_stop_drains_after_inflight;
    Alcotest.test_case "heartbeats run on the real clock" `Quick
      test_worker_heartbeat_uses_real_clock;
    Alcotest.test_case "service table matches --jobs 1" `Quick
      test_service_matches_single_process;
    Alcotest.test_case "service refuses a foreign fingerprint" `Quick
      test_service_fingerprint_mismatch;
    Alcotest.test_case "service worker on an empty journal" `Quick
      test_service_worker_empty_journal;
    Alcotest.test_case "killer tasks escalate to quarantine" `Quick
      test_service_escalation;
    Alcotest.test_case "heal keeps one heartbeat per owner" `Quick
      test_service_heal_compacts_heartbeats;
    Alcotest.test_case "two followers: first record still wins" `Quick
      test_followers_interleave_first_record_wins;
    Alcotest.test_case "worker handle refolds after a checkpoint" `Quick
      test_handle_follows_checkpoint;
    Alcotest.test_case "worker handle refolds after a truncation" `Quick
      test_handle_follows_truncation;
    QCheck_alcotest.to_alcotest follower_prop;
    QCheck_alcotest.to_alcotest kill_anywhere_prop;
    Alcotest.test_case "crash hook always respawns its victim" `Quick
      test_crash_hook_always_respawns;
    Alcotest.test_case "crash hook gate outlives the lease TTL" `Quick
      test_crash_hook_gate_outlives_ttl ]
