(** Lease-based multi-process work queue over a v2 {!Ldx_store.Store}
    file.

    The queue is nothing but the store file itself: every claim,
    heartbeat, release and outcome is one checksummed record appended
    with a single [write(2)] on an [O_APPEND] descriptor, and the
    queue's state is a deterministic fold ({!view_of}) over the journal
    in file order.  There is no coordinator process and no lock file —
    POSIX's guarantee that [O_APPEND] writes on a regular file are
    serialized is the only synchronization primitive.

    {2 Lease state machine}

    Each task is in one of three states, advanced by journal records in
    file order:

    {v
              l (epoch = next)                o
    Free ------------------------> Leased --------> Done
      ^                            |    |
      |     r (owner+epoch match)  |    | l (epoch = cur+1): reclaim;
      +----------------------------+    | the previous holder is
      ^                                 | charged with an expiry
      +---------------------------------+
    v}

    - a {e claim} ([l] record) wins iff its epoch is exactly the task's
      next epoch — for a [Free] task the stored [next_epoch], for a
      [Leased] task the holder's epoch + 1 (a {e reclaim} of an expired
      lease, charging the old holder; see {!view.expired_owners}).  Any
      other epoch is a lost race and is ignored, so when two workers
      append claims for the same [(index, epoch)], the first record in
      file order wins — this is the whole arbitration rule.
    - a {e release} ([r] record, matching owner and epoch) is a clean
      hand-back: the task returns to [Free] with the next epoch and the
      owner is {e not} charged.
    - an {e outcome} ([o] record) puts the task in [Done] forever; the
      first outcome in file order wins and duplicates are ignored, which
      is what makes "exactly once" hold even when a lease was wrongly
      reclaimed from a slow-but-alive worker.

    Claimants never trust their pre-append read: {!claim} appends the
    lease record, catches up with the file, and reports victory only if
    the fold says so.

    {2 Following the journal}

    Claims read the file through a {!follower}, which folds only the
    records appended since its last catch-up (see
    {!Ldx_store.Store.follow}).  A claim therefore costs
    O(records appended since the previous claim + tasks), not
    O(journal).  The
    follower refolds from offset 0 when an atomic-rename checkpoint has
    replaced the file or it was truncated, and its view always equals
    {!view_of} over a full [Store.load] of the file cut after its last
    newline.

    {2 Expiry and heartbeats}

    A lease carries a wall-clock deadline (µs since the epoch); a
    worker's [h] records extend every lease it holds.  A task is
    reclaimable once [now_us > deadline] where [deadline] is the max of
    the lease's own deadline and the holder's latest heartbeat.  Expiry
    is judged by the {e claimant's} clock at claim time — the fold
    itself is clock-free, so two processes reading the same file always
    agree on the state. *)

(** A live lease as seen by the fold: [deadline_us] is already the
    {e effective} deadline (lease deadline maxed with the holder's
    latest heartbeat). *)
type lease = { holder : string; epoch : int; deadline_us : int }

type task_state =
  | Free of { next_epoch : int }
  | Leased of lease
  | Done of { payload : string }  (** first outcome in file order *)

type view = {
  manifest : Ldx_store.Store.manifest;
  states : task_state array;      (** indexed by task *)
  expired_owners : string list array;
      (** per task: distinct owners whose lease was reclaimed without a
          release, in charge order — the input to quarantine
          escalation ("this task killed K distinct workers") *)
  torn : int;                     (** damaged records skipped on load *)
}

(** Fold a loaded store into the queue state (pure; clock-free). *)
val view_of : Ldx_store.Store.loaded -> view

(** [load ~path] = read + {!view_of}.  [Error] on unreadable files or
    manifest damage, like [Store.load]. *)
val load : path:string -> (view, string) result

val remaining : view -> int   (** tasks not yet [Done] *)

val is_complete : view -> bool

(** The [Done] payloads in task order ([(index, payload)], one per
    finished task). *)
val outcomes : view -> (int * string) list

(** [compact_heartbeats entries] keeps one heartbeat per owner, at that
    owner's latest deadline, after the other entries (which keep their
    order).  {!view_of} does not change, since the fold applies each
    owner's latest heartbeat after all records; a checkpoint that
    compacts stops carrying every heartbeat of every earlier run. *)
val compact_heartbeats :
  Ldx_store.Store.entry list -> Ldx_store.Store.entry list

(** {1 Following the journal} *)

type follower

(** [follow ~path] reads nothing yet; the first {!catch_up} reads the
    whole file. *)
val follow : path:string -> follower

(** Fold the records appended since the last catch-up and return the
    view: equal to [load] on the file cut after its last newline.
    [Error] like {!load}. *)
val catch_up : follower -> (view, string) result

(** Close the descriptor the follower holds. *)
val unfollow : follower -> unit

(** {1 Appending}

    All writers go through [append]: one [write(2)] of
    ["\n" ^ entry_line e] on an [O_APPEND] descriptor.  The leading
    newline is the multi-writer tear discipline — it terminates
    whatever half-written line a killed peer left behind, so the
    damaged record fails its checksum in isolation instead of gluing
    onto ours.  [sync] additionally [fsync]s (power-loss durability).
    @raise Sys_error / [Unix.Unix_error] on I/O failure. *)
val append : path:string -> ?sync:bool -> Ldx_store.Store.entry -> unit

(** {1 The worker protocol} *)

type claim_result =
  | Claimed of { index : int; epoch : int; reclaimed_from : string option }
      (** the lease is ours; [reclaimed_from] names the expired holder
          we took it over from, if any *)
  | Wait     (** nothing claimable right now, but the queue isn't done
                 (live leases elsewhere) — poll again *)
  | Drained  (** every task is [Done] *)

(** [claim_with f ~owner ~now_us ~ttl_us ()] tries to win a lease on
    the first [Free]-or-expired task: catch [f] up, append a claim with
    deadline [now_us + ttl_us], catch up again, and loop (a lost race
    moves on to the next claimable task) until a claim sticks or
    nothing is claimable.  A lease is expired once
    [now_us > deadline_us] (strict). *)
val claim_with :
  follower ->
  owner:string ->
  now_us:int ->
  ttl_us:int ->
  ?sync:bool ->
  unit ->
  (claim_result, string) result

(** One-shot {!claim_with} on a fresh follower of [path]: one full read,
    then catch-ups. *)
val claim :
  path:string ->
  owner:string ->
  now_us:int ->
  ttl_us:int ->
  ?sync:bool ->
  unit ->
  (claim_result, string) result

(** Extend every lease [owner] holds to [deadline_us]. *)
val heartbeat :
  path:string -> owner:string -> deadline_us:int -> ?sync:bool -> unit -> unit

(** Cleanly hand back a lease (graceful drain) — no expiry charge. *)
val release :
  path:string -> index:int -> owner:string -> epoch:int -> ?sync:bool ->
  unit -> unit

(** Journal a task's outcome (also retires its lease: [Done] wins over
    everything). *)
val complete :
  path:string -> index:int -> payload:string -> ?sync:bool -> unit -> unit

(** {1 Worker loop} *)

module Worker : sig
  type outcome =
    | Complete  (** queue drained: every task [Done] *)
    | Drained   (** [stop] asked us to quit; in-flight task finished *)

  (** [run ~path ~owner ~ttl_us ~heartbeat_us ~poll_us task] claims,
      executes [task index] (which returns the outcome payload),
      journals, and repeats until the queue is complete or [stop ()]
      turns true (checked between tasks — the in-flight task always
      finishes, which is what makes SIGTERM a clean drain).  While the
      loop runs, a background domain appends a heartbeat every
      [heartbeat_us] extending this owner's leases by [ttl_us]
      (disabled when [heartbeat_us <= 0]; the heartbeat domain always
      uses the real clock).  [Wait] sleeps [poll_us] between polls.

      [now_us]/[sleep_us] exist for deterministic tests; production
      callers take the defaults (real clock / [Unix.sleepf]).  The
      loop claims through one {!follower} for its whole run.

      If [task] raises, the lease is released (so a peer can take
      over) and the exception propagates — but note the campaign
      runner contains task crashes itself, so a raise here means the
      worker is broken, not the task. *)
  val run :
    ?obs:Ldx_obs.Sink.t ->
    ?stop:(unit -> bool) ->
    ?now_us:(unit -> int) ->
    ?sleep_us:(int -> unit) ->
    ?sync:bool ->
    path:string ->
    owner:string ->
    ttl_us:int ->
    heartbeat_us:int ->
    poll_us:int ->
    (int -> string) ->
    outcome
end

(** µs since the Unix epoch, from the real clock. *)
val now_us : unit -> int
