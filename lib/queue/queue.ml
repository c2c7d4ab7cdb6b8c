(* Lease-based multi-process work queue over a v2 store file.  See the
   interface for the state machine; the load-bearing decisions here:

   - arbitration is structural, not temporal: the fold accepts the
     FIRST record for a given (index, epoch) and ignores later ones, so
     whoever's write(2) landed first owns the lease — claimants verify
     by catching up with the file after they append;
   - the fold is clock-free: expiry is judged only by claimants, at
     claim time, against the effective deadline (the lease's, or its
     holder's latest heartbeat) — so every process reading the file
     derives the identical view;
   - appends carry a leading newline so that a peer killed mid-write
     damages only its own (checksummed) record, never ours. *)

module Store = Ldx_store.Store
module Obs = Ldx_obs

type lease = { holder : string; epoch : int; deadline_us : int }

type task_state =
  | Free of { next_epoch : int }
  | Leased of lease
  | Done of { payload : string }

type view = {
  manifest : Store.manifest;
  states : task_state array;
  expired_owners : string list array;
  torn : int;
}

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* The fold, one journal entry at a time: [view_of] runs it over a
   whole load, a follower over the entries each catch-up appends. *)
type fold = {
  f_manifest : Store.manifest;
  f_states : task_state array;      (* lease deadlines before heartbeats *)
  f_expired : string list array;    (* newest charge first *)
  heartbeats : (string, int) Hashtbl.t;
      (* owner -> latest heartbeat deadline; deadlines only move forward *)
}

let fold_init (m : Store.manifest) : fold =
  let n = List.length m.Store.tasks in
  { f_manifest = m;
    f_states = Array.make n (Free { next_epoch = 0 });
    f_expired = Array.make n [];
    heartbeats = Hashtbl.create 7 }

let fold_step (f : fold) (e : Store.entry) : unit =
  let states = f.f_states and expired = f.f_expired in
  let n = Array.length states in
  match e with
  | Store.Outcome { index; payload } ->
    if index >= 0 && index < n then
      (match states.(index) with
       | Done _ -> ()     (* first outcome wins; duplicates ignored *)
       | Free _ | Leased _ -> states.(index) <- Done { payload })
  | Store.Lease { index; owner; epoch; deadline_us } ->
    if index >= 0 && index < n then
      (match states.(index) with
       | Done _ -> ()
       | Free { next_epoch } when epoch = next_epoch ->
         states.(index) <- Leased { holder = owner; epoch; deadline_us }
       | Free _ -> ()     (* stale epoch: lost race *)
       | Leased cur when epoch = cur.epoch + 1 ->
         (* reclaim of an expired lease — the claimant checked the
            clock before appending; here we only arbitrate.  The
            previous holder is charged with an expiry (it did not
            release), which is what quarantine escalation counts. *)
         if not (List.mem cur.holder expired.(index)) then
           expired.(index) <- cur.holder :: expired.(index);
         states.(index) <- Leased { holder = owner; epoch; deadline_us }
       | Leased _ -> ())
  | Store.Heartbeat { owner; deadline_us } ->
    let prev =
      Option.value (Hashtbl.find_opt f.heartbeats owner) ~default:min_int
    in
    if deadline_us > prev then Hashtbl.replace f.heartbeats owner deadline_us
  | Store.Release { index; owner; epoch } ->
    if index >= 0 && index < n then
      (match states.(index) with
       | Leased cur when cur.holder = owner && cur.epoch = epoch ->
         states.(index) <- Free { next_epoch = epoch + 1 }
       | _ -> ())

(* Heartbeats apply after all records: a lease is as alive as its
   holder's latest heartbeat, wherever in the file that sits. *)
let effective_deadline (f : fold) (l : lease) =
  match Hashtbl.find_opt f.heartbeats l.holder with
  | Some d when d > l.deadline_us -> d
  | _ -> l.deadline_us

(* Copies, so the fold can go on. *)
let view_of_fold (f : fold) ~torn : view =
  { manifest = f.f_manifest;
    states =
      Array.map
        (function
          | Leased cur as st ->
            let d = effective_deadline f cur in
            if d = cur.deadline_us then st
            else Leased { cur with deadline_us = d }
          | st -> st)
        f.f_states;
    expired_owners = Array.map List.rev f.f_expired;
    torn }

let view_of (l : Store.loaded) : view =
  let f = fold_init l.Store.l_manifest in
  List.iter (fold_step f) l.Store.l_entries;
  view_of_fold f ~torn:l.Store.l_torn

let load ~path =
  Result.map view_of (Store.load ~path)

let remaining v =
  Array.fold_left
    (fun acc st -> match st with Done _ -> acc | _ -> acc + 1)
    0 v.states

let is_complete v = remaining v = 0

let outcomes v =
  Array.to_list v.states
  |> List.mapi (fun i st -> (i, st))
  |> List.filter_map (fun (i, st) ->
      match st with Done { payload } -> Some (i, payload) | _ -> None)

let compact_heartbeats (entries : Store.entry list) : Store.entry list =
  let latest = Hashtbl.create 7 in
  let owners = ref [] in      (* first-seen order, newest first *)
  let others =
    List.filter
      (function
        | Store.Heartbeat { owner; deadline_us } ->
          (match Hashtbl.find_opt latest owner with
           | None ->
             owners := owner :: !owners;
             Hashtbl.replace latest owner deadline_us
           | Some d ->
             if deadline_us > d then Hashtbl.replace latest owner deadline_us);
          false
        | Store.Outcome _ | Store.Lease _ | Store.Release _ -> true)
      entries
  in
  others
  @ List.rev_map
      (fun owner ->
         Store.Heartbeat { owner; deadline_us = Hashtbl.find latest owner })
      !owners

(* -------------------------------------------------------------------- *)
(* Following the journal *)

type follower = { path : string; fold : fold Store.follower }

let follow ~path =
  { path; fold = Store.follow ~path ~init:fold_init ~step:fold_step }

let catch_up f =
  Result.map (fun (fold, torn) -> view_of_fold fold ~torn)
    (Store.catch_up f.fold)

let unfollow f = Store.unfollow f.fold

(* -------------------------------------------------------------------- *)
(* Appending *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let append ~path ?(sync = false) (e : Store.entry) =
  (* the leading newline terminates whatever half-written line a killed
     peer left at the tail; blank lines are ignored by the loader *)
  let line = Store.appended_line e in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_all fd line 0 (String.length line);
  if sync then Unix.fsync fd

(* -------------------------------------------------------------------- *)
(* The worker protocol *)

type claim_result =
  | Claimed of { index : int; epoch : int; reclaimed_from : string option }
  | Wait
  | Drained

(* First Free-or-expired task, with the epoch a claim must carry.
   Claims pick and verify on the fold itself, not on a [view]: a view
   copies the task table, and a claim catches up twice.  The effective
   deadline is worked out only for the leases a claim looks at. *)
let pick_claimable (f : fold) ~now_us =
  let states = f.f_states in
  let rec go i =
    if i >= Array.length states then None
    else
      match states.(i) with
      | Free { next_epoch } -> Some (i, next_epoch, None)
      | Leased l when now_us > effective_deadline f l ->
        Some (i, l.epoch + 1, Some l.holder)
      | Leased _ | Done _ -> go (i + 1)
  in
  go 0

let claim_with f ~owner ~now_us ~ttl_us ?(sync = false) () =
  let ( let* ) = Result.bind in
  let rec go (fold : fold) =
    match pick_claimable fold ~now_us with
    | None ->
      Ok
        (if Array.for_all (function Done _ -> true | _ -> false) fold.f_states
         then Drained
         else Wait)
    | Some (index, epoch, reclaimed_from) ->
      append ~path:f.path ~sync
        (Store.Lease { index; owner; epoch; deadline_us = now_us + ttl_us });
      (* never trust the pre-append read: the fold, caught up past our
         own record, is the arbiter *)
      let* fold, _ = Store.catch_up f.fold in
      (match fold.f_states.(index) with
       | Leased { holder; epoch = e; _ } when holder = owner && e = epoch ->
         Ok (Claimed { index; epoch; reclaimed_from })
       | _ -> go fold (* lost the race; try the next claimable task *))
  in
  let* fold, _ = Store.catch_up f.fold in
  go fold

let claim ~path ~owner ~now_us ~ttl_us ?sync () =
  let f = follow ~path in
  Fun.protect ~finally:(fun () -> unfollow f) @@ fun () ->
  claim_with f ~owner ~now_us ~ttl_us ?sync ()

let heartbeat ~path ~owner ~deadline_us ?(sync = false) () =
  append ~path ~sync (Store.Heartbeat { owner; deadline_us })

let release ~path ~index ~owner ~epoch ?(sync = false) () =
  append ~path ~sync (Store.Release { index; owner; epoch })

let complete ~path ~index ~payload ?(sync = false) () =
  append ~path ~sync (Store.Outcome { index; payload })

(* -------------------------------------------------------------------- *)
(* Worker loop *)

module Worker = struct
  type outcome = Complete | Drained

  let run ?obs ?(stop = fun () -> false) ?now_us:(clock = now_us)
      ?(sync = false) ~journal ~owner ~ttl_us ~heartbeat_us ~poll_us task =
    let path = journal.path in
    let emit ev = Obs.Sink.emit_opt obs ev in
    emit (Obs.Event.Worker_event { owner; kind = "start" });
    (* the heartbeat domain parks in select(2) on a self-pipe: it
       sleeps whole heartbeat periods without polling (wake-churn from
       N sleeping domains is visible wall time on small hosts) and the
       worker's exit write wakes it instantly, so Domain.join has no
       tail *)
    let hb_stop = Atomic.make false in
    let hb =
      if heartbeat_us <= 0 then None
      else begin
        let rd, wr = Unix.pipe ~cloexec:true () in
        let d =
          Domain.spawn (fun () ->
              (* the heartbeat domain always runs on the real clock,
                 never the injected [clock]: its job is to convince
                 OTHER processes' real-clock expiry checks that we are
                 alive *)
              let rec beat () =
                if not (Atomic.get hb_stop) then
                  match
                    Unix.select [ rd ] [] []
                      (float_of_int heartbeat_us /. 1e6)
                  with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> beat ()
                  | _ :: _, _, _ -> ()   (* stop signalled *)
                  | [], _, _ ->
                    if not (Atomic.get hb_stop) then begin
                      (try
                         heartbeat ~path ~owner
                           ~deadline_us:(now_us () + ttl_us) ~sync ()
                       with _ -> ());
                      beat ()
                    end
              in
              beat ())
        in
        Some (d, rd, wr)
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set hb_stop true;
        Option.iter
          (fun (d, rd, wr) ->
             (try ignore (Unix.write_substring wr "x" 0 1)
              with Unix.Unix_error _ -> ());
             Domain.join d;
             Unix.close rd;
             Unix.close wr)
          hb)
    @@ fun () ->
    let rec loop () =
      if stop () then begin
        emit (Obs.Event.Worker_event { owner; kind = "drain" });
        Drained
      end
      else
        match claim_with journal ~owner ~now_us:(clock ()) ~ttl_us ~sync () with
        | Error e -> failwith e
        | Ok Wait ->
          Unix.sleepf (float_of_int poll_us /. 1e6);
          loop ()
        | Ok (Claimed { index; epoch; reclaimed_from }) ->
          emit
            (Obs.Event.Lease_claim
               { index; owner; epoch;
                 reclaimed = reclaimed_from <> None });
          Option.iter
            (fun dead ->
               emit
                 (Obs.Event.Lease_expired
                    { index; owner = dead; epoch = epoch - 1 }))
            reclaimed_from;
          (match task index with
           | payload ->
             complete ~path ~index ~payload ~sync ()
           | exception e ->
             (* hand the lease back so a peer can take over, then let
                the wreckage surface *)
             (try release ~path ~index ~owner ~epoch ~sync () with _ -> ());
             raise e);
          loop ()
        | Ok Drained ->
          emit (Obs.Event.Worker_event { owner; kind = "complete" });
          Complete
    in
    loop ()
end
