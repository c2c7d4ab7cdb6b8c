(* Durable journaled storage.  See the interface for the format
   grammar and the checkpoint/append durability discipline. *)

let header = "ldx-store/1"
let header_v2 = "ldx-store/2"

(* ------------------------------------------------------------------ *)
(* Checksums and fingerprints.                                         *)

(* FNV-1a 64-bit: tiny, dependency-free, and plenty for torn-write
   detection — the threat model is a half-written line after a crash,
   not an adversary forging collisions. *)
let fnv64 (s : string) : int64 =
  let offset_basis = 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let h = ref offset_basis in
  String.iter
    (fun c ->
       h := Int64.logxor !h (Int64.of_int (Char.code c));
       h := Int64.mul !h prime)
    s;
  !h

let hash_hex s = Printf.sprintf "%016Lx" (fnv64 s)

(* Length-prefixing keeps part boundaries significant, so moving bytes
   between adjacent parts always changes the digest. *)
let fingerprint (parts : string list) : string =
  hash_hex
    (String.concat ""
       (List.map (fun p -> string_of_int (String.length p) ^ ":" ^ p) parts))

let escape = String.escaped

let unescape (s : string) : (string, string) result =
  match Scanf.unescaped s with
  | v -> Ok v
  | exception Scanf.Scan_failure m -> Error ("bad escape: " ^ m)
  | exception Failure m -> Error ("bad escape: " ^ m)

(* ------------------------------------------------------------------ *)
(* Records.                                                            *)

type manifest = {
  fingerprint : string;
  meta : (string * string) list;
  tasks : string list;
}

(* One checksummed line: "<tag> <crc> <rest>" with crc = fnv64(rest).
   [rest] must be newline-free (payloads are escaped by the caller of
   [record]). *)
let record tag rest = Printf.sprintf "%c %s %s\n" tag (hash_hex rest) rest

let outcome_line index payload =
  record 'o' (Printf.sprintf "%d %s" index (escape payload))

(* Journal entries.  Owners ride unescaped inside space-separated
   fields, so they must be flat tokens — they are machine-generated
   worker identities ("w0-12345"), not user text. *)
type entry =
  | Outcome of { index : int; payload : string }
  | Lease of { index : int; owner : string; epoch : int; deadline_us : int }
  | Heartbeat of { owner : string; deadline_us : int }
  | Release of { index : int; owner : string; epoch : int }

let check_owner owner =
  if owner = ""
     || String.exists (fun c -> c = ' ' || c = '\n' || c = '\r') owner
  then invalid_arg ("Store: bad owner token " ^ String.escaped owner)

let entry_line = function
  | Outcome { index; payload } -> outcome_line index payload
  | Lease { index; owner; epoch; deadline_us } ->
    check_owner owner;
    record 'l' (Printf.sprintf "%d %s %d %d" index owner epoch deadline_us)
  | Heartbeat { owner; deadline_us } ->
    check_owner owner;
    record 'h' (Printf.sprintf "%s %d" owner deadline_us)
  | Release { index; owner; epoch } ->
    check_owner owner;
    record 'r' (Printf.sprintf "%d %s %d" index owner epoch)

let manifest_lines ~version (m : manifest) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    ("# " ^ (if version >= 2 then header_v2 else header) ^ "\n");
  Buffer.add_string buf ("f " ^ m.fingerprint ^ "\n");
  List.iter
    (fun (k, v) ->
       if String.contains k ' ' then
         invalid_arg "Store: manifest keys must not contain spaces";
       Buffer.add_string buf (record 'm' (k ^ " " ^ escape v)))
    m.meta;
  List.iteri
    (fun i label ->
       Buffer.add_string buf (record 't' (string_of_int i ^ " " ^ escape label)))
    m.tasks;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Writing.                                                            *)

type t = {
  path : string;
  version : int;
  sync : bool;
  mutable oc : out_channel option;
}

let fsync_oc oc =
  (* flush first: fsync pushes the KERNEL's buffers to the platter, the
     channel's userspace buffer is on this side of that boundary *)
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let checkpoint_gen ~path ~version ~sync (m : manifest) (lines : string list) : t =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (manifest_lines ~version m);
      List.iter (output_string oc) lines;
      (* the rename publishes whatever made it to disk; flush first so
         "whatever" is the whole checkpoint *)
      flush oc;
      if sync then fsync_oc oc);
  Sys.rename tmp path;
  (* with [sync] the rename itself must survive power loss too: fsync
     the containing directory (best-effort — some filesystems refuse
     fsync on a directory fd) *)
  if sync then begin
    match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
    | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
    | exception Unix.Unix_error _ -> ()
  end;
  { path; version; sync;
    oc = Some (Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path) }

let checkpoint ~path ?(sync = false) (m : manifest)
    (outcomes : (int * string) list) : t =
  checkpoint_gen ~path ~version:1 ~sync m
    (List.map (fun (i, payload) -> outcome_line i payload) outcomes)

let checkpoint_entries ~path ?(sync = false) (m : manifest)
    (entries : entry list) : t =
  checkpoint_gen ~path ~version:2 ~sync m (List.map entry_line entries)

let append_line (t : t) (line : string) : unit =
  match t.oc with
  | None -> invalid_arg "Store.append: store is closed"
  | Some oc ->
    output_string oc line;
    (* flush per record: a crash after [append] returns must find the
       record on the other side of the channel buffer *)
    flush oc;
    if t.sync then fsync_oc oc

let append (t : t) (index : int) (payload : string) : unit =
  append_line t (outcome_line index payload)

let append_entry (t : t) (e : entry) : unit =
  (match e with
   | Outcome _ -> ()
   | Lease _ | Heartbeat _ | Release _ ->
     if t.version < 2 then
       invalid_arg "Store.append_entry: lease records need a v2 store");
  append_line t (entry_line e)

let path_of t = t.path

let close (t : t) : unit =
  match t.oc with
  | None -> ()
  | Some oc ->
    t.oc <- None;
    Out_channel.close oc

(* ------------------------------------------------------------------ *)
(* Reading.                                                            *)

type loaded = {
  l_manifest : manifest;
  l_version : int;
  l_entries : entry list;
  l_outcomes : (int * string) list;
  l_torn : int;
}

let split_once ch s =
  match String.index_opt s ch with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* "<tag> <crc> <rest>" with a matching checksum, or None. *)
let parse_record (line : string) : (char * string) option =
  if String.length line < 2 || line.[1] <> ' ' then None
  else
    match split_once ' ' (String.sub line 2 (String.length line - 2)) with
    | Some (crc, rest) when crc = hash_hex rest -> Some (line.[0], rest)
    | _ -> None

(* Decode the checksummed [rest] of a journal record; [None] = a
   malformed body under a VALID checksum, which the torn-tail rule
   treats like any other damage. *)
let parse_entry (tag : char) (rest : string) : entry option =
  let fields = String.split_on_char ' ' rest in
  match (tag, fields) with
  | 'o', index :: payload ->
    (match (int_of_string_opt index, unescape (String.concat " " payload)) with
     | Some index, Ok payload -> Some (Outcome { index; payload })
     | _ -> None)
  | 'l', [ index; owner; epoch; deadline ] ->
    (match
       (int_of_string_opt index, int_of_string_opt epoch,
        int_of_string_opt deadline)
     with
     | Some index, Some epoch, Some deadline_us when owner <> "" ->
       Some (Lease { index; owner; epoch; deadline_us })
     | _ -> None)
  | 'h', [ owner; deadline ] ->
    (match int_of_string_opt deadline with
     | Some deadline_us when owner <> "" -> Some (Heartbeat { owner; deadline_us })
     | _ -> None)
  | 'r', [ index; owner; epoch ] ->
    (match (int_of_string_opt index, int_of_string_opt epoch) with
     | Some index, Some epoch when owner <> "" ->
       Some (Release { index; owner; epoch })
     | _ -> None)
  | _ -> None

(* The one line parser.  [load] feeds it every line of a file and
   [follow] every complete line appended since its last catch-up, so
   the header, manifest and tear rules below exist exactly once. *)
type reader = {
  r_path : string;
  mutable lineno : int;                  (* lines fed so far *)
  mutable version : int;                 (* from line 0 *)
  mutable err : string option;           (* sticky: the first failure *)
  mutable fp : string option;
  mutable meta : (string * string) list;   (* reversed *)
  mutable tasks : (int * string) list;     (* (index, label), reversed *)
  mutable torn : int;
  mutable in_journal : bool;
      (* once set, the manifest is final: manifest records after the
         first journal line are counted torn, not parsed *)
}

let reader path =
  { r_path = path; lineno = 0; version = 1; err = None; fp = None;
    meta = []; tasks = []; torn = 0; in_journal = false }

let expected_header r = "# " ^ (if r.version >= 2 then header_v2 else header)

(* Feed one line (its '\n' stripped); a valid journal record comes back
   as [Some entry]. *)
let feed (r : reader) (line : string) : entry option =
  let lineno = r.lineno in
  r.lineno <- lineno + 1;
  let fail msg =
    r.err <- Some (Printf.sprintf "%s: line %d: %s" r.r_path (lineno + 1) msg);
    None
  in
  let torn () = r.torn <- r.torn + 1; None in
  if r.err <> None then None
  else if lineno = 0 then begin
    if line = "# " ^ header_v2 then r.version <- 2;
    if line = expected_header r then None
    else fail (Printf.sprintf "expected header %S" (expected_header r))
  end
  else if line = "" then None
  else
    match line.[0] with
    | '#' -> None
    | 'o' | 'l' | 'h' | 'r' as c when c = 'o' || r.version >= 2 ->
      r.in_journal <- true;
      (* the journal is where torn writes live.  v1 files have one
         writer, so a record that fails its checksum (or was cut short)
         is dropped along with everything after it — a tear mid-file
         means the file is not append-only and nothing downstream can
         be trusted.  v2 files have many [O_APPEND] writers, each
         prefixing its record with a newline: a peer killed
         mid-write(2) leaves a damaged record in the MIDDLE of the file
         while later appends are intact, so v2 drops bad records
         individually — each one still vouched for (or condemned) by
         its own checksum. *)
      if r.version < 2 && r.torn > 0 then torn ()
      else (
        match parse_record line with
        | Some (tag, rest) ->
          (match parse_entry tag rest with Some _ as e -> e | None -> torn ())
        | None -> torn ())
    | _ when r.in_journal ->
      (* junk after the journal started: same torn-record treatment *)
      torn ()
    | 'f' ->
      (match split_once ' ' line with
       | Some ("f", fp) when r.fp = None -> r.fp <- Some fp; None
       | _ -> fail "malformed fingerprint record")
    | 'm' ->
      (match parse_record line with
       | Some ('m', rest) ->
         (match split_once ' ' rest with
          | Some (k, v) ->
            (match unescape v with
             | Ok v -> r.meta <- (k, v) :: r.meta; None
             | Error e -> fail e)
          | None -> fail "malformed manifest record")
       | _ -> fail "manifest record failed its checksum")
    | 't' ->
      (match parse_record line with
       | Some ('t', rest) ->
         (match split_once ' ' rest with
          | Some (i, v) ->
            (match (int_of_string_opt i, unescape v) with
             | Some i, Ok v -> r.tasks <- (i, v) :: r.tasks; None
             | _ -> fail "malformed task record")
          | None -> fail "malformed task record")
       | _ -> fail "task record failed its checksum")
    | _ -> fail (Printf.sprintf "unknown record %S" line)

(* Feed [r] every '\n'-terminated line of [s], and with [~tail:true]
   the unterminated rest as well.  Returns the offset just past the
   last '\n' fed. *)
let feed_lines r s ~tail (k : entry -> unit) : int =
  let rec go pos =
    match String.index_from_opt s pos '\n' with
    | Some nl ->
      Option.iter k (feed r (String.sub s pos (nl - pos)));
      go (nl + 1)
    | None ->
      if tail then
        Option.iter k (feed r (String.sub s pos (String.length s - pos)));
      pos
  in
  go 0

let manifest_of (r : reader) : (manifest, string) result =
  match (r.err, r.fp) with
  | Some e, _ -> Error e
  | None, None -> Error (r.r_path ^ ": missing fingerprint record")
  | None, Some fp ->
    (* task records carry their index so order on disk is free; sort
       back into task order *)
    let tasks =
      List.sort (fun (a, _) (b, _) -> compare a b) (List.rev r.tasks)
      |> List.map snd
    in
    Ok { fingerprint = fp; meta = List.rev r.meta; tasks }

let load ~path : (loaded, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text ->
    let r = reader path in
    let entries = ref [] in
    (* the final line goes in even without its '\n': it may be a torn
       record, and the checksum decides its fate *)
    ignore
      (feed_lines r text ~tail:true (fun e -> entries := e :: !entries));
    Result.map
      (fun m ->
         let entries = List.rev !entries in
         { l_manifest = m;
           l_version = r.version;
           l_entries = entries;
           l_outcomes =
             List.filter_map
               (function
                 | Outcome { index; payload } -> Some (index, payload)
                 | Lease _ | Heartbeat _ | Release _ -> None)
               entries;
           l_torn = r.torn })
      (manifest_of r)

(* ------------------------------------------------------------------ *)
(* Following.                                                          *)

type 'acc follower = {
  f_path : string;
  init : manifest -> 'acc;
  step : 'acc -> entry -> unit;
  mutable fd : Unix.file_descr option;
      (* the file folded so far, held open so that its inode number
         cannot be recycled by a later checkpoint while we compare
         against it *)
  mutable ident : int * int;             (* (st_dev, st_ino) of [fd] *)
  mutable offset : int;                  (* just past the last '\n' fed *)
  mutable rd : reader;
  mutable acc : 'acc option;             (* seeded at the first journal line *)
}

let follow ~path ~init ~step =
  { f_path = path; init; step; fd = None; ident = (0, 0); offset = 0;
    rd = reader path; acc = None }

let unfollow f =
  Option.iter Unix.close f.fd;
  f.fd <- None

(* The fold, seeded once the journal section has started: from then on
   the manifest cannot change.  [None] before that, or when the
   manifest is broken (which then stays broken). *)
let seeded f =
  match f.acc with
  | Some _ as a -> a
  | None when not f.rd.in_journal -> None
  | None ->
    (match manifest_of f.rd with
     | Ok m ->
       let a = f.init m in
       f.acc <- Some a;
       Some a
     | Error _ -> None)

(* [len] bytes from [pos], fewer if the file was cut short meanwhile *)
let read_at fd ~pos ~len : string =
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let buf = Bytes.create len in
  let rec go got =
    if got = len then got
    else
      match Unix.read fd buf got (len - got) with
      | 0 -> got
      | n -> go (got + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
  in
  Bytes.sub_string buf 0 (go 0)

(* Point [f] at the file now at its path and return that file's size.
   The held descriptor stays if it is still that file and was not
   truncated below [offset]; otherwise (first call, an atomic-rename
   checkpoint, a truncation) the fold starts over at offset 0 on the
   new descriptor.  Identity and size come from the descriptor we go on
   to read, so a rename racing this call cannot pair one file's offset
   with another file's bytes. *)
let reopen f : int =
  let fd = Unix.openfile f.f_path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  match Unix.fstat fd with
  | exception e -> Unix.close fd; raise e
  | st ->
    let ident = (st.Unix.st_dev, st.Unix.st_ino) in
    if f.fd <> None && ident = f.ident && st.Unix.st_size >= f.offset then
      Unix.close fd
    else begin
      unfollow f;
      f.fd <- Some fd;
      f.ident <- ident;
      f.offset <- 0;
      f.rd <- reader f.f_path;
      f.acc <- None
    end;
    st.Unix.st_size

let catch_up f =
  match
    let size = reopen f in
    read_at (Option.get f.fd) ~pos:f.offset ~len:(size - f.offset)
  with
  | exception Unix.Unix_error (e, _, _) ->
    Error (f.f_path ^ ": " ^ Unix.error_message e)
  | text ->
    (* an unterminated final line stays unconsumed: it may be a peer's
       append still in flight, and is read again next time *)
    let consumed =
      feed_lines f.rd text ~tail:false (fun e ->
          Option.iter (fun a -> f.step a e) (seeded f))
    in
    f.offset <- f.offset + consumed;
    (match seeded f with
     | Some a -> Ok (a, f.rd.torn)
     | None ->
       (* still in the manifest section: a fresh, empty fold *)
       Result.map (fun m -> (f.init m, f.rd.torn)) (manifest_of f.rd))
