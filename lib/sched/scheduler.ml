(* Pluggable deterministic thread scheduling for the MiniC VM.

   A [spec] is an immutable description of a scheduling policy plus its
   seed; [instantiate] turns it into a per-execution [state] holding the
   mutable pick cursor (and, when recording, the decision log) — the
   same plan/state split as [Ldx_osim.Fault], and for the same reason:
   the SAME spec instantiated twice drives the SAME interleaving, which
   is what lets a master and a slave (or any number of campaign slaves)
   reproduce one schedule independently.

   Policies:
   - [Round_robin] is bit-identical to the VM's historical hard-wired
     scheduler: pick runnable[(cursor mod n)], cursor++, quantum
     8 + ((seed lxor (steps * 2654435761)) land 31).  Pinned
     interleavings (and the asymmetric per-workload syscall counts the
     regression suite asserts) therefore survive the refactor.
   - [Random] draws the pick from a hash of (seed, decision index) —
     never a live RNG, so it is bit-reproducible across executions,
     domains and processes.
   - [Priority] always runs the highest-priority runnable thread,
     round-robin among equals; unlisted threads have priority 0.
   - [Replay] follows a recorded {!Schedule.t} through a cursor,
     falling back to round-robin when the recorded thread is not
     currently runnable (the execution being replayed onto has
     diverged) or the log is exhausted.
   - [Forced] is the exploration hook: a sparse list of
     (decision index, thread) overrides on top of round-robin.  Because
     the base policy is deterministic, two runs sharing a forced prefix
     execute identically up to the first differing override — the
     property the bounded enumerator ({!Explore}) rests on.
   - [Pinned] always names one spawn index, with NO runnability check —
     a deliberately hostile policy for testing the VM's pick validation
     (the VM must trap cleanly, not crash, when a scheduler names a
     blocked or nonexistent thread).  Not reachable from the CLI. *)

type policy =
  | Round_robin
  | Random
  | Priority of (int * int) list    (* (spawn index, priority) *)
  | Replay of Schedule.t
  | Forced of (int * int) list      (* (decision index, forced thread) *)
  | Pinned of int                   (* hostile: always this spawn index *)

type spec = {
  policy : policy;
  seed : int;
  quantum_override : int option;    (* fixed quantum instead of the seeded one *)
}

let spec ?(seed = 0) ?quantum policy =
  { policy; seed; quantum_override = quantum }

(* The spec of the VM's historical scheduler. *)
let legacy ~seed = { policy = Round_robin; seed; quantum_override = None }

type decision = {
  d_index : int;                    (* 0-based decision number *)
  d_chosen : int;                   (* chosen thread, by spawn index *)
  d_quantum : int;
  d_preempted : bool;               (* previous thread was still runnable *)
  d_nrunnable : int;                (* size of the choice set *)
  d_runnable : int array;           (* the choice set; captured when recording *)
}

(* The last decision lives in [last], [quantum], [preempted] and
   [nrunnable]: [pick] builds no [decision] unless the state records or
   someone asks for one ([last_decision]). *)
type state = {
  sspec : spec;
  record : bool;
  mutable cursor : int;             (* round-robin rotation *)
  mutable index : int;              (* decisions made so far *)
  mutable last : int;               (* last chosen thread; -1 before any *)
  mutable quantum : int;            (* the last decision's quantum *)
  mutable preempted : bool;         (* the last decision preempted *)
  mutable nrunnable : int;          (* the last decision's choice-set size *)
  mutable preemptions : int;
  replay_cursor : Schedule.cursor option;
  mutable rev_log : decision list;  (* only when [record] *)
}

let instantiate ?(record = false) (s : spec) : state =
  { sspec = s;
    record;
    cursor = 0;
    index = 0;
    last = -1;
    quantum = 0;
    preempted = false;
    nrunnable = 0;
    preemptions = 0;
    replay_cursor =
      (match s.policy with
       | Replay sched -> Some (Schedule.start sched)
       | Round_robin | Random | Priority _ | Forced _ | Pinned _ -> None);
    rev_log = [] }

let spec_of (st : state) : spec = st.sspec

(* Snapshot copy: same spec, same cursors — a restored execution
   continues the schedule exactly where the original was
   ([Fault.copy_state] discipline).  The decision log survives (the log
   list is immutable, so sharing its cells is safe), so a restored
   execution's recorded trace covers the pre-snapshot prefix too. *)
let copy_full (st : state) : state =
  { st with
    replay_cursor = Option.map Schedule.copy_cursor st.replay_cursor }

let decisions (st : state) = st.index
let preemptions (st : state) = st.preemptions

(* Recorded decisions, oldest first.  Empty unless [~record] was set. *)
let trace (st : state) : decision array =
  Array.of_list (List.rev st.rev_log)

let to_schedule (st : state) : Schedule.t =
  Array.of_list
    (List.rev_map
       (fun d -> { Schedule.s_thread = d.d_chosen; s_quantum = d.d_quantum })
       st.rev_log)

(* ------------------------------------------------------------------ *)
(* Picking.                                                            *)

(* The historical quantum perturbation (kept bit-for-bit). *)
let legacy_quantum ~seed ~steps = 8 + ((seed lxor (steps * 2654435761)) land 31)

(* Derandomised pick hash over (seed, decision index) — the [Fault.coin]
   design: no live RNG anywhere, so every policy is bit-reproducible. *)
let mix ~seed ~index =
  let h = (seed * 0x9E3779B1) lxor (index * 0x85EBCA6B) in
  let h = h lxor (h lsr 15) in
  (h * 0xC2B2AE35) land 0x3FFFFFFF

let rr_pick st (runnable : int array) =
  let n = Array.length runnable in
  let chosen = runnable.(st.cursor mod n) in
  st.cursor <- st.cursor + 1;
  chosen

(* Top level, not a local closure over [a] and [x]: no allocation. *)
let rec contains_from (a : int array) (x : int) i =
  i < Array.length a && (a.(i) = x || contains_from a x (i + 1))

let contains a x = contains_from a x 0

let quantum (st : state) = st.quantum

let decision_of (st : state) d_runnable =
  { d_index = st.index - 1;
    d_chosen = st.last;
    d_quantum = st.quantum;
    d_preempted = st.preempted;
    d_nrunnable = st.nrunnable;
    d_runnable }

(* The decision [pick] just made: the logged record when recording,
   otherwise built here from the state. *)
let last_decision (st : state) : decision =
  match st.rev_log with d :: _ -> d | [] -> decision_of st [||]

(* One scheduling decision over the current [runnable] set (spawn
   indexes in thread-creation order, never empty).  [steps] is the VM's
   step count at the pick, which the legacy quantum formula consumes.
   Returns the chosen thread and leaves the quantum and the preemption
   flag in the state.  Round-robin and Random allocate nothing; only
   recording builds a [decision]. *)
let pick (st : state) ~(runnable : int array) ~(steps : int) : int =
  let n = Array.length runnable in
  if n = 0 then invalid_arg "Scheduler.pick: empty runnable set";
  let seed = st.sspec.seed in
  (st.quantum <-
     match st.sspec.quantum_override with
     | Some q -> q
     | None -> legacy_quantum ~seed ~steps);
  let chosen =
    match st.sspec.policy with
    | Round_robin -> rr_pick st runnable
    | Random ->
      let h = mix ~seed ~index:st.index in
      (match st.sspec.quantum_override with
       | Some _ -> ()
       | None -> st.quantum <- 4 + ((h lsr 12) land 31));
      runnable.(h mod n)
    | Priority prios ->
      let prio t =
        match List.assoc_opt t prios with Some p -> p | None -> 0
      in
      let best =
        Array.fold_left (fun acc t -> max acc (prio t)) min_int runnable
      in
      let cands = Array.of_list
          (List.filter (fun t -> prio t = best) (Array.to_list runnable))
      in
      rr_pick st cands
    | Replay _ ->
      let c = Option.get st.replay_cursor in
      (match Schedule.next c with
       | Some e ->
         (* the recorded thread may not be runnable here (the execution
            replayed onto has diverged): fall back to round-robin but
            keep consuming the log, staying in lockstep by decision *)
         st.quantum <- e.Schedule.s_quantum;
         if contains runnable e.Schedule.s_thread then e.Schedule.s_thread
         else rr_pick st runnable
       | None -> rr_pick st runnable)
    | Forced forced ->
      (match List.assoc_opt st.index forced with
       | Some t when contains runnable t ->
         (* a forced divergence consumes the round-robin rotation too,
            so decisions after the override keep their base phase *)
         st.cursor <- st.cursor + 1;
         t
       | Some _ | None -> rr_pick st runnable)
    | Pinned t ->
      (* no [contains] check, by design: the point is to hand the VM a
         pick it must validate *)
      t
  in
  let preempted = st.last >= 0 && st.last <> chosen && contains runnable st.last in
  if preempted then st.preemptions <- st.preemptions + 1;
  st.preempted <- preempted;
  st.nrunnable <- n;
  st.index <- st.index + 1;
  st.last <- chosen;
  if st.record then
    st.rev_log <- decision_of st (Array.copy runnable) :: st.rev_log;
  chosen

(* ------------------------------------------------------------------ *)
(* Spec naming (CLI surface).                                          *)

let policy_name = function
  | Round_robin -> "rr"
  | Random -> "random"
  | Priority _ -> "prio"
  | Replay _ -> "replay"
  | Forced _ -> "forced"
  | Pinned _ -> "pinned"

let spec_to_string (s : spec) =
  let base =
    match s.policy with
    | Round_robin -> "rr"
    | Random -> "random"
    | Priority prios ->
      "prio:"
      ^ String.concat ","
          (List.map (fun (t, p) -> Printf.sprintf "%d=%d" t p) prios)
    | Replay sched -> Printf.sprintf "replay[%d]" (Schedule.length sched)
    | Forced forced ->
      "forced:"
      ^ String.concat ","
          (List.map (fun (i, t) -> Printf.sprintf "%d=%d" i t) forced)
    | Pinned t -> Printf.sprintf "pinned:%d" t
  in
  Printf.sprintf "%s/seed=%d%s" base s.seed
    (match s.quantum_override with
     | Some q -> Printf.sprintf "/q=%d" q
     | None -> "")

(* Parse a CLI policy name: "rr" | "random" | "prio:T=P,T=P,...".
   Replay and Forced have richer inputs (a schedule file, an
   enumerator) and are built programmatically. *)
let policy_of_string (s : string) : (policy, string) result =
  match s with
  | "rr" | "round-robin" -> Ok Round_robin
  | "random" -> Ok Random
  | _ ->
    if String.length s > 5 && String.sub s 0 5 = "prio:" then begin
      let body = String.sub s 5 (String.length s - 5) in
      let pairs = String.split_on_char ',' body in
      let parsed =
        List.map
          (fun p ->
             match String.split_on_char '=' p with
             | [ t; pr ] ->
               (match (int_of_string_opt t, int_of_string_opt pr) with
                | Some t, Some pr -> Ok (t, pr)
                | _ -> Error p)
             | _ -> Error p)
          pairs
      in
      match
        List.find_opt (function Error _ -> true | Ok _ -> false) parsed
      with
      | Some (Error p) -> Error (Printf.sprintf "bad priority pair %S" p)
      | _ ->
        Ok
          (Priority
             (List.filter_map
                (function Ok x -> Some x | Error _ -> None)
                parsed))
    end
    else Error (Printf.sprintf "unknown scheduling policy %S" s)
