(* ldx_campaignd: the campaign-service supervisor.

     ldx_campaignd --queue campaign.ldx --workers 3 prog.minic --sweep-seeds 40

   Initializes the journal/lease-queue (idempotent: restarting on the
   same queue file resumes the campaign; a queue that is already
   complete is collected without spawning a worker), spawns N
   ldx_worker processes, and supervises them: dead workers are reaped and
   respawned with backoff under fresh owner identities, workers that
   stop heartbeating while still alive are SIGKILLed (the respawn path
   then recovers them), and a task whose lease has expired under
   --max-kills distinct owners is escalated to cross-process
   quarantine.  When every task is done the fleet is drained (SIGTERM)
   and the rendered table — byte-identical to a single-process
   --jobs 1 run — is printed to stdout.

   Exit codes: 0 = campaign complete, 21 = supervisor drained on
   SIGTERM/SIGINT, 1 = error. *)

open Cmdliner
module Campaign = Ldx_core.Campaign
module Q = Ldx_queue.Queue
module Service_common = Ldx_service_cli.Service_common

let exit_drained = 21

let queue_arg =
  Arg.(required & opt (some string) None
       & info [ "queue" ] ~docv:"FILE"
         ~doc:"The campaign journal / lease queue.  Reusing the file of \
               an identical campaign resumes it; a different campaign \
               re-initializes it.")

let workers_arg =
  Arg.(value & opt int 3
       & info [ "workers" ] ~docv:"N" ~doc:"Worker processes to run.")

let max_kills =
  Arg.(value & opt int 3
       & info [ "max-kills" ] ~docv:"K"
         ~doc:"Quarantine a task once its lease has expired under \
               $(docv) distinct workers (\"it keeps killing them\").")

let ttl_ms =
  Arg.(value & opt int 5000
       & info [ "ttl-ms" ] ~docv:"MS" ~doc:"Worker lease time-to-live.")

let heartbeat_ms =
  Arg.(value & opt int 1000
       & info [ "heartbeat-ms" ] ~docv:"MS" ~doc:"Worker heartbeat period.")

let poll_ms =
  Arg.(value & opt int 200
       & info [ "poll-ms" ] ~docv:"MS" ~doc:"Worker queue-poll period.")

let respawn_backoff_ms =
  Arg.(value & opt int 200
       & info [ "respawn-backoff-ms" ] ~docv:"MS"
         ~doc:"Base respawn delay after a worker death; doubles per \
               consecutive death of the same slot (capped at 16x).")

let kill_after_outcomes =
  Arg.(value & opt (some int) None
       & info [ "kill-after-outcomes" ] ~docv:"N"
         ~doc:"Crash-injection hook for CI: once the journal holds \
               $(docv) outcomes, SIGKILL one live worker, then let \
               supervision recover it.  While armed, the supervisor \
               holds one task's lease itself, so the queue cannot \
               finish before the kill and the respawn.")

let worker_exe_arg =
  Arg.(value & opt (some string) None
       & info [ "worker-exe" ] ~docv:"PATH"
         ~doc:"The ldx_worker executable (default: a sibling of this \
               binary).")

(* OCaml numbers the signals it knows negatively and passes the others
   through, so a wait status names a signal by its POSIX name or, for
   one [Sys] does not know, by its number. *)
let signal_name s =
  let names =
    Sys.
      [ (sigabrt, "SIGABRT"); (sigalrm, "SIGALRM"); (sigbus, "SIGBUS");
        (sigchld, "SIGCHLD"); (sigcont, "SIGCONT"); (sigfpe, "SIGFPE");
        (sighup, "SIGHUP"); (sigill, "SIGILL"); (sigint, "SIGINT");
        (sigkill, "SIGKILL"); (sigpipe, "SIGPIPE"); (sigpoll, "SIGPOLL");
        (sigprof, "SIGPROF"); (sigquit, "SIGQUIT"); (sigsegv, "SIGSEGV");
        (sigstop, "SIGSTOP"); (sigsys, "SIGSYS"); (sigterm, "SIGTERM");
        (sigtrap, "SIGTRAP"); (sigtstp, "SIGTSTP"); (sigttin, "SIGTTIN");
        (sigttou, "SIGTTOU"); (sigurg, "SIGURG"); (sigusr1, "SIGUSR1");
        (sigusr2, "SIGUSR2"); (sigvtalrm, "SIGVTALRM"); (sigxcpu, "SIGXCPU");
        (sigxfsz, "SIGXFSZ") ]
  in
  match List.assoc_opt s names with
  | Some name -> name
  | None -> Printf.sprintf "signal %d" s

type slot = {
  mutable pid : int;
  mutable owner : string;
  mutable gen : int;
  mutable deaths : int;   (* consecutive abnormal deaths, for backoff *)
  mutable live : bool;
}

let main queue workers max_kills ttl_ms heartbeat_ms poll_ms
    respawn_backoff_ms kill_after_outcomes worker_exe spec =
  match Service_common.resolve spec with
  | Error e -> `Error (false, e)
  | Ok c ->
    let sync = spec.Service_common.sync in
    Campaign.Service.init ~sync ?retry:c.Service_common.retry
      ?deadline:c.Service_common.deadline ~path:queue
      ~config:c.Service_common.config c.Service_common.prog
      c.Service_common.world c.Service_common.params;
    Printf.eprintf "ldx_campaignd: queue %s (%d tasks, %d workers)\n%!" queue
      (List.length c.Service_common.params)
      workers;
    (* one follower for the supervisor's life: a tick folds only what
       the workers appended since the previous tick *)
    let journal = Q.follow ~path:queue in
    let complete () =
      match Q.catch_up journal with
      | Ok v -> Q.is_complete v
      | Error _ -> false
    in
    let finish () =
      match Campaign.Service.collect ~path:queue c.Service_common.params with
      | Ok outs ->
        print_string (Campaign.render outs);
        Printf.eprintf "ldx_campaignd: campaign complete (journal %s)\n%!"
          queue;
        `Ok ()
      | Error e -> `Error (false, e)
    in
    (* a queue an earlier run finished needs no worker *)
    if complete () then begin
      Q.unfollow journal;
      Printf.eprintf "ldx_campaignd: queue already complete\n%!";
      finish ()
    end
    else
    let exe =
      match worker_exe with
      | Some p -> p
      | None ->
        Filename.concat (Filename.dirname Sys.executable_name) "ldx_worker.exe"
    in
    let spec_argv = Array.of_list (Service_common.to_argv spec) in
    let my_pid = Unix.getpid () in
    (* The crash hook's gate: while the hook is armed, the supervisor
       holds one task's lease, heartbeating it as a worker would, so the
       queue cannot finish before the hook has killed a worker and the
       slot has been respawned.  Without it, a campaign of a few
       milliseconds can finish before the first tick.  The gate opens
       once the victim's death has been handled, and on every exit.  It
       is not armed when the hook cannot fire: the gate's task never
       counts toward the N outcomes. *)
    let gate_owner = Printf.sprintf "hook.p%d" my_pid in
    let gate =
      ref
        (match kill_after_outcomes with
         | Some n when n < List.length c.Service_common.params ->
           (match
              Q.claim ~path:queue ~owner:gate_owner ~now_us:(Q.now_us ())
                ~ttl_us:(ttl_ms * 1000) ~sync ()
            with
            | Ok (Q.Claimed { index; epoch; _ }) -> Some (index, epoch)
            | Ok (Q.Wait | Q.Drained) | Error _ -> None)
         | Some _ | None -> None)
    in
    let gate_beat_us = ref (Q.now_us ()) in
    let beat_gate () =
      let now = Q.now_us () in
      if !gate <> None && heartbeat_ms > 0
         && now - !gate_beat_us >= heartbeat_ms * 1000
      then begin
        gate_beat_us := now;
        Q.heartbeat ~path:queue ~owner:gate_owner
          ~deadline_us:(now + (ttl_ms * 1000)) ~sync ()
      end
    in
    let open_gate () =
      Option.iter
        (fun (index, epoch) ->
           gate := None;
           Q.release ~path:queue ~index ~owner:gate_owner ~epoch ~sync ())
        !gate
    in
    let spawn slot_id gen =
      let owner = Printf.sprintf "w%d.%d.p%d" slot_id gen my_pid in
      let argv =
        Array.append
          [| exe; "--queue"; queue; "--owner"; owner;
             "--ttl-ms"; string_of_int ttl_ms;
             "--heartbeat-ms"; string_of_int heartbeat_ms;
             "--poll-ms"; string_of_int poll_ms |]
          spec_argv
      in
      let pid =
        Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr
      in
      (pid, owner)
    in
    let slots =
      Array.init workers (fun i ->
          let pid, owner = spawn i 0 in
          Printf.eprintf "ldx_campaignd: spawned worker %s (pid %d)\n%!" owner
            pid;
          { pid; owner; gen = 0; deaths = 0; live = true })
    in
    let draining = Atomic.make false in
    let request_drain _ = Atomic.set draining true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_drain);
    let kill_hook_fired = ref false in
    let escalate () =
      match Campaign.Service.escalate ~sync ~path:queue ~kills:max_kills () with
      | Ok 0 | Error _ -> ()
      | Ok n ->
        Printf.eprintf
          "ldx_campaignd: quarantined %d task(s) that kept killing workers\n%!"
          n
    in
    let describe st =
      match st with
      | Unix.WEXITED c when c = exit_drained -> ("drained", true)
      | Unix.WEXITED 0 -> ("complete", true)
      | Unix.WEXITED c -> (Printf.sprintf "exit %d" c, false)
      | Unix.WSIGNALED s -> (signal_name s, false)
      | Unix.WSTOPPED s -> ("stopped by " ^ signal_name s, false)
    in
    (* reap dead workers; respawn abnormal deaths (with backoff) unless
       the campaign is over or we are draining *)
    let reap_and_respawn () =
      Array.iteri
        (fun i s ->
           if s.live then
             match Unix.waitpid [ Unix.WNOHANG ] s.pid with
             | 0, _ -> ()
             | _, st ->
               let how, clean = describe st in
               s.live <- false;
               Printf.eprintf "ldx_campaignd: worker %s %s (%s)\n%!" s.owner
                 (if clean then "exited" else "died")
                 how;
               if not clean then begin
                 s.deaths <- s.deaths + 1;
                 (* the dead worker's leases expire on their own; check
                    whether any task has now eaten too many workers *)
                 escalate ();
                 if (not (Atomic.get draining)) && not (complete ()) then begin
                   let backoff =
                     float_of_int
                       (respawn_backoff_ms * min 16 (1 lsl (s.deaths - 1)))
                     /. 1000.
                   in
                   Unix.sleepf backoff;
                   s.gen <- s.gen + 1;
                   let pid, owner = spawn i s.gen in
                   s.pid <- pid;
                   s.owner <- owner;
                   s.live <- true;
                   Printf.eprintf
                     "ldx_campaignd: respawned worker %s (pid %d, backoff \
                      %.1fs)\n%!"
                     owner pid backoff
                 end;
                 if !kill_hook_fired then open_gate ()
               end
               else s.deaths <- 0
             | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s.live <- false)
        slots
    in
    (* a worker that holds a lease expired well past its TTL while its
       process is still alive is hung (stopped heartbeating): put it
       out of its misery, the respawn path recovers it *)
    let kill_hung now_us v =
      Array.iter
        (fun st ->
           match st with
           | Q.Leased { holder; deadline_us; _ }
             when now_us > deadline_us + (ttl_ms * 1000) ->
             Array.iter
               (fun s ->
                  if s.live && s.owner = holder then begin
                    Printf.eprintf
                      "ldx_campaignd: worker %s stopped heartbeating, \
                       killing it\n%!"
                      s.owner;
                    (try Unix.kill s.pid Sys.sigkill with _ -> ())
                  end)
               slots
           | _ -> ())
        v.Q.states
    in
    let test_kill_hook v =
      match kill_after_outcomes with
      | Some n when not !kill_hook_fired ->
        let outcomes = Array.length v.Q.states - Q.remaining v in
        if outcomes >= n then begin
          (* any live worker will do: the gate keeps the queue open
             until its death has been handled *)
          (match Array.find_opt (fun s -> s.live) slots with
           | Some s ->
             kill_hook_fired := true;
             Printf.eprintf
               "ldx_campaignd: test hook: SIGKILL worker %s (pid %d) after \
                %d outcomes\n%!"
               s.owner s.pid outcomes;
             (try Unix.kill s.pid Sys.sigkill with _ -> ())
           | None -> ())
        end
      | _ -> ()
    in
    let rec supervise () =
      if Atomic.get draining then `Drain
      else begin
        reap_and_respawn ();
        match Q.catch_up journal with
        | Error e ->
          Printf.eprintf "ldx_campaignd: %s\n%!" e;
          `Error e
        | Ok v ->
          if Q.is_complete v then `Complete
          else begin
            test_kill_hook v;
            kill_hung (Q.now_us ()) v;
            if not (Array.exists (fun s -> s.live) slots) then begin
              (* whole fleet gone and the queue is not finished: respawn
                 happens in reap_and_respawn, so getting here means
                 draining or unrecoverable — check once more *)
              escalate ()
            end;
            beat_gate ();
            (* while the gate is held, tick at least once per heartbeat *)
            Unix.sleepf
              (if !gate <> None && heartbeat_ms > 0 then
                 Float.min 0.05 (float_of_int heartbeat_ms /. 1000.)
               else 0.05);
            supervise ()
          end
      end
    in
    let shutdown () =
      Array.iter
        (fun s ->
           if s.live then try Unix.kill s.pid Sys.sigterm with _ -> ())
        slots;
      Array.iter
        (fun s ->
           if s.live then begin
             (match Unix.waitpid [] s.pid with
              | _, st ->
                let how, _ = describe st in
                Printf.eprintf "ldx_campaignd: worker %s exited (%s)\n%!"
                  s.owner how
              | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
             s.live <- false
           end)
        slots
    in
    (match
       Fun.protect
         ~finally:(fun () -> open_gate (); Q.unfollow journal)
         supervise
     with
     | `Complete ->
       shutdown ();
       finish ()
     | `Drain ->
       Printf.eprintf "ldx_campaignd: draining on signal\n%!";
       shutdown ();
       exit exit_drained
     | `Error e ->
       shutdown ();
       `Error (false, e))

let cmd =
  let info =
    Cmd.info "ldx_campaignd"
      ~doc:"Campaign-service supervisor: spawn, watch, respawn, escalate"
  in
  Cmd.v info
    Term.(
      ret
        (const main $ queue_arg $ workers_arg $ max_kills $ ttl_ms
         $ heartbeat_ms $ poll_ms $ respawn_backoff_ms $ kill_after_outcomes
         $ worker_exe_arg $ Service_common.term))

let () = exit (Cmd.eval cmd)
