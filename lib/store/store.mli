(** Durable journaled storage for campaigns (and other task sweeps).

    A store file is a {e versioned, line-oriented text format} in the
    same spirit as the [# ldx-sched/1] schedule format: one header
    line, a manifest section, then an append-only journal of outcome
    records.  Every record line carries its own FNV-1a checksum, so a
    reader can detect torn writes (a process killed mid-[write(2)]) and
    recover the longest valid prefix instead of losing the file.

    Durability discipline:

    - {b checkpoint} writes the whole file (manifest + any outcomes) to
      a temporary sibling and atomically renames it into place — a
      crash during checkpoint leaves either the old file or the new
      one, never a hybrid;
    - {b append} adds one checksummed outcome record and flushes — a
      crash mid-append costs at most that record, which the checksum
      catches on the next load.

    The store knows nothing about what an outcome {e means}: payloads
    are opaque single-line strings (callers escape them; see
    {!escape}).  [Ldx_core.Campaign] layers fingerprint validation and
    outcome serialization on top.

    Format grammar (one record per line):
    {v
    # ldx-store/1
    f <fingerprint>             (caller-computed configuration digest)
    m <crc> <key> <value>       (manifest metadata, repeatable)
    t <crc> <index> <label>     (one per task, in task order)
    o <crc> <index> <payload>   (outcome journal; appended over time)
    v}
    where [<crc>] is the FNV-1a 64-bit hash of everything after the
    "[X <crc> ]" prefix, in lower-case hex.  Blank lines are ignored.
    ['#'] lines are comments (only the header is meaningful).

    {b # ldx-store/2} extends the journal section with {e lease}
    bookkeeping for the cross-process campaign service: besides [o]
    records, a v2 journal may carry
    {v
    l <crc> <index> <owner> <epoch> <deadline_us>   (lease claim)
    h <crc> <owner> <deadline_us>                   (worker heartbeat)
    r <crc> <index> <owner> <epoch>                 (lease release)
    v}
    Owners are opaque space-free worker identities; [epoch] counts how
    many times the task's lease has changed hands (claim arbitration:
    the {e first} record in file order for a given [(index, epoch)]
    wins); [deadline_us] is a wall-clock µs-since-epoch expiry.  Lease
    records are pure scheduling state — they never affect what a
    campaign's outcomes {e mean}, so a v2 reader can always ignore them
    and recover exactly the v1 outcome journal ({!loaded.l_outcomes}).
    A v1 reader, by design, refuses the v2 header rather than
    misparse it. *)

(** {1 Checksums and fingerprints} *)

(** FNV-1a 64-bit hash. *)
val fnv64 : string -> int64

(** Lower-case 16-hex-digit rendering of {!fnv64}. *)
val hash_hex : string -> string

(** Digest of an ordered list of parts (length-prefixed, so part
    boundaries matter: [["ab";"c"] <> ["a";"bc"]]).  Equal to
    [hash_hex] of the concatenated ["<len>:<part>"] pieces, which are
    hashed in place rather than built. *)
val fingerprint : string list -> string

(** {1 Hex}

    The one hex codec of persisted payloads (journal outcomes, snapshot
    wire forms): two lower-case digits per byte, and ["-"] for the
    empty string, so the field never vanishes between separators. *)

val hex_encode : string -> string

(** Exact inverse of {!hex_encode}: it accepts only what the encoder
    emits (["-"], or a non-empty even-length run of [0-9a-f]) and
    refuses everything else — an odd length, an upper-case or non-hex
    digit, the empty string. *)
val hex_decode : string -> (string, string) result

(** {1 Escaping} *)

(** Escape a payload to a single line (C-style, ['\\'] escapes); inverse
    {!unescape}. *)
val escape : string -> string

(** [Scanf.unescaped], as a result.  A string holding neither ['\\']
    nor ['"'] is returned as it is without scanning: for such strings
    the scanner is the identity. *)
val unescape : string -> (string, string) result

(** {1 Manifest} *)

type manifest = {
  fingerprint : string;
      (** opaque digest of everything the journaled outcomes depend on;
          {!load} returns it, callers decide whether it still matches *)
  meta : (string * string) list;  (** free-form metadata, in order *)
  tasks : string list;            (** task labels, in task order *)
}

(** {1 Journal entries}

    A v1 journal holds only {!Outcome} entries; a v2 journal
    additionally interleaves the lease-queue records. *)

type entry =
  | Outcome of { index : int; payload : string }
  | Lease of {
      index : int;
      owner : string;   (** space-free worker identity *)
      epoch : int;      (** lease generation; first (index, epoch) wins *)
      deadline_us : int;  (** wall-clock µs-since-epoch expiry *)
    }
  | Heartbeat of { owner : string; deadline_us : int }
      (** extends every lease [owner] holds to [deadline_us] *)
  | Release of { index : int; owner : string; epoch : int }
      (** clean hand-back (graceful drain): the task is free again and
          the owner is {e not} charged with an expiry *)

(** The checksummed single-line rendering of an entry (trailing
    newline included) — exactly what {!append_entry} writes.
    @raise Invalid_argument if an owner contains a space or newline. *)
val entry_line : entry -> string

(** ["\n" ^ entry_line e], built in one buffer: what a multi-process
    writer appends with one [write(2)] on an [O_APPEND] descriptor (the
    atomicity the lease-claim arbitration relies on).
    @raise Invalid_argument like {!entry_line}. *)
val appended_line : entry -> string

(** {1 Writing} *)

type t

(** [checkpoint ~path manifest outcomes] atomically replaces [path]
    with a store holding [manifest] and the given [(index, payload)]
    outcome records, then leaves the store open for {!append}.

    [sync] (default [false]) additionally [fsync]s the file on
    checkpoint and after {e every} append: the flush-per-record
    default survives process crashes (the OS holds the data), [sync]
    survives power loss, at the cost of one disk round-trip per
    record.
    @raise Sys_error on I/O failure. *)
val checkpoint : path:string -> ?sync:bool -> manifest -> (int * string) list -> t

(** [checkpoint_entries] is {!checkpoint} for a v2 store: the journal
    section is seeded with arbitrary entries (outcomes {e and} lease
    records) and the file carries the [# ldx-store/2] header. *)
val checkpoint_entries : path:string -> ?sync:bool -> manifest -> entry list -> t

(** Append one outcome record and flush (and [fsync] when the store
    was opened with [~sync:true]). *)
val append : t -> int -> string -> unit

(** Append any journal entry.  Non-[Outcome] entries require a store
    written by {!checkpoint_entries} (v2).
    @raise Invalid_argument on a lease record in a v1 store. *)
val append_entry : t -> entry -> unit

val close : t -> unit

(** {1 Reading} *)

type loaded = {
  l_manifest : manifest;
  l_version : int;                   (** 1 or 2, from the header *)
  l_entries : entry list;            (** valid journal entries, file order *)
  l_outcomes : (int * string) list;
      (** the [Outcome] projection of [l_entries], file order — exactly
          the v1 view, whatever the file version *)
  l_torn : int;
      (** records (or partial lines) dropped because a checksum failed
          or the line was cut short — [> 0] means a writer died
          mid-append.  v1 (single writer): the first bad record
          condemns everything after it.  v2 (many [O_APPEND] writers,
          each prefixing its record with a newline): bad records are
          dropped {e individually} — a peer killed mid-[write(2)]
          damages only its own record, later appends are intact. *)
}

(** Parse a store file (either version), recovering the longest valid
    prefix of the journal.  [Error] on a missing/renamed header or a
    corrupt {e manifest} section (the manifest is only ever written by
    an atomic checkpoint, so damage there is real corruption, not a
    torn append). *)
val load : path:string -> (loaded, string) result

(** {1 Following}

    A follower folds a store file incrementally.  It remembers the
    file's identity and the byte offset just past the last complete
    line it has folded, and each {!catch_up} reads, checksums and folds
    only the bytes appended since, up to the size the file has when the
    catch-up looks (so every append that returned before the call is
    included).  It parses with {!load}'s line
    parser, so after every catch-up its fold equals the fold over
    [l_entries] of {!load} on the file cut after its last newline: an
    unterminated final line is left for the next catch-up, because it
    may be an append still in flight.

    A follower holds its descriptor open between catch-ups, and one
    [stat(2)] of the path per catch-up checks that the path still names
    that file.  The fold starts over from offset 0 on a new descriptor
    when the path names a different file (an atomic-rename
    {!checkpoint}) or the file is shorter than the offset (a
    truncation).  Holding the descriptor means its inode number cannot
    be reused for a replacement, so an equal identity is the same file.
    A truncation that the file regrows past the offset between two
    catch-ups looks like appends; store files only grow between
    checkpoints, so only an outside hand can do that.

    A follower is not safe to share between domains. *)

type 'acc follower

(** [follow ~path ~init ~step] opens nothing yet.  The fold is seeded
    with [init manifest] once the journal section starts, and [step]
    folds each valid journal entry into it, in file order. *)
val follow :
  path:string ->
  init:(manifest -> 'acc) ->
  step:('acc -> entry -> unit) ->
  'acc follower

(** Catch up with the file: the fold so far and the torn-record count
    ({!loaded.l_torn}).  Before the journal section starts, the fold is
    a fresh [init manifest].  [Error] on I/O failure, and where {!load}
    would fail. *)
val catch_up : 'acc follower -> ('acc * int, string) result

(** Close the descriptor the follower holds.  A later {!catch_up}
    starts over from offset 0. *)
val unfollow : 'acc follower -> unit
