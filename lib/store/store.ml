(* Durable journaled storage.  See the interface for the format
   grammar and the checkpoint/append durability discipline. *)

let header = "ldx-store/1"
let header_v2 = "ldx-store/2"

(* ------------------------------------------------------------------ *)
(* Checksums and fingerprints.                                         *)

(* FNV-1a 64-bit: tiny, dependency-free, and plenty for torn-write
   detection — the threat model is a half-written line after a crash,
   not an adversary forging collisions. *)
let fnv_offset_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* [h] folded over every byte of [s].  No closure captures the local
   [h], so the native compiler keeps it unboxed and the loop allocates
   nothing per byte. *)
let fnv_feed (h : int64) (s : string) : int64 =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let fnv64 (s : string) : int64 = fnv_feed fnv_offset_basis s

let hex_digits = "0123456789abcdef"

(* digit [i] (most significant first) of [h]'s 16-digit rendering *)
let hash_digit (h : int64) i =
  String.unsafe_get hex_digits
    (Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15)

let hex_of_hash (h : int64) : string =
  Bytes.init 16 (hash_digit h) |> Bytes.unsafe_to_string

let hash_hex s = hex_of_hash (fnv64 s)

(* Length-prefixing keeps part boundaries significant, so moving bytes
   between adjacent parts always changes the digest.  The parts are
   hashed in place: the digest is that of
   [String.concat "" (List.map (fun p -> len p ^ ":" ^ p) parts)],
   without building that string. *)
let fingerprint (parts : string list) : string =
  hex_of_hash
    (List.fold_left
       (fun h p ->
          let h = fnv_feed h (string_of_int (String.length p)) in
          fnv_feed (fnv_feed h ":") p)
       fnv_offset_basis parts)

(* The one hex codec of every persisted payload: lower-case digit pairs,
   and "-" for the empty string (so the field never vanishes between
   separators).  [nibble] maps a byte to its digit value, and every
   byte that is not a lower-case hex digit to 0xff. *)
let nibble =
  let t = Bytes.make 256 '\xff' in
  String.iteri (fun i c -> Bytes.set t (Char.code c) (Char.chr i)) hex_digits;
  Bytes.unsafe_to_string t

let hex_encode (s : string) : string =
  let n = String.length s in
  if n = 0 then "-"
  else begin
    let b = Bytes.create (2 * n) in
    (* unchecked: [i < n], and a nibble indexes the 16 digits *)
    for i = 0 to n - 1 do
      let c = Char.code (String.unsafe_get s i) in
      Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
      Bytes.unsafe_set b
        ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
    done;
    Bytes.unsafe_to_string b
  end

let hex_decode (s : string) : (string, string) result =
  let n = String.length s in
  if s = "-" then Ok ""
  else if n = 0 then Error "empty hex"
  else if n land 1 = 1 then Error "odd hex length"
  else begin
    let b = Bytes.create (n / 2) in
    (* unchecked: [2i + 1 < n], and a byte indexes the 256-entry table *)
    let rec go i =
      if i = n / 2 then Ok (Bytes.unsafe_to_string b)
      else
        let hi = String.unsafe_get s (2 * i)
        and lo = String.unsafe_get s ((2 * i) + 1) in
        let hi = Char.code (String.unsafe_get nibble (Char.code hi))
        and lo = Char.code (String.unsafe_get nibble (Char.code lo)) in
        if hi lor lo > 15 then Error "bad hex digit"
        else begin
          Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
    in
    go 0
  end

let escape = String.escaped

(* [Scanf.unescaped] reads [s] as the inside of an OCaml string literal:
   only a backslash starts an escape and only a double quote ends the
   literal, every other byte stands for itself.  So a string with
   neither is its own unescaping, and skips the scanner. *)
let unescape (s : string) : (string, string) result =
  if not (String.exists (fun c -> c = '\\' || c = '"') s) then Ok s
  else
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

(* One checksummed line, "<tag> <crc> <head><body>\n" where [h] is the
   FNV-1a hash of [head ^ body], built in one buffer; with [lead], the
   buffer starts with the '\n' a multi-writer append puts first.
   [head] and [body] must be newline-free (payloads are escaped). *)
let build ~lead tag head body (h : int64) : string =
  let l = if lead then 1 else 0 in
  let nh = String.length head and nb = String.length body in
  let b = Bytes.create (l + 19 + nh + nb + 1) in
  if lead then Bytes.unsafe_set b 0 '\n';
  Bytes.unsafe_set b l tag;
  Bytes.unsafe_set b (l + 1) ' ';
  for i = 0 to 15 do
    Bytes.unsafe_set b (l + 2 + i) (hash_digit h i)
  done;
  Bytes.unsafe_set b (l + 18) ' ';
  Bytes.unsafe_blit_string head 0 b (l + 19) nh;
  Bytes.unsafe_blit_string body 0 b (l + 19 + nh) nb;
  Bytes.unsafe_set b (l + 19 + nh + nb) '\n';
  Bytes.unsafe_to_string b

let record ~lead tag rest = build ~lead tag rest "" (fnv64 rest)

(* "<index> <escaped payload>": one pass hashes the payload and checks
   whether [escape] would rewrite it (a quote, a backslash, or a byte
   outside ' '..'~').  Only then is it escaped and hashed again. *)
let outcome_line ~lead index payload =
  let head = string_of_int index ^ " " in
  let h = ref (fnv64 head) and plain = ref true in
  for i = 0 to String.length payload - 1 do
    let c = Char.code (String.unsafe_get payload i) in
    if c < 32 || c > 126 || c = 34 || c = 92 then plain := false;
    h := Int64.mul (Int64.logxor !h (Int64.of_int c)) fnv_prime
  done;
  if !plain then build ~lead 'o' head payload !h
  else
    let body = escape payload in
    build ~lead 'o' head body (fnv_feed (fnv64 head) body)

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

let render ~lead = function
  | Outcome { index; payload } -> outcome_line ~lead index payload
  | Lease { index; owner; epoch; deadline_us } ->
    check_owner owner;
    record ~lead 'l'
      (String.concat " "
         [ string_of_int index; owner; string_of_int epoch;
           string_of_int deadline_us ])
  | Heartbeat { owner; deadline_us } ->
    check_owner owner;
    record ~lead 'h' (owner ^ " " ^ string_of_int deadline_us)
  | Release { index; owner; epoch } ->
    check_owner owner;
    record ~lead 'r'
      (String.concat " " [ string_of_int index; owner; string_of_int epoch ])

let entry_line e = render ~lead:false e
let appended_line e = render ~lead:true e

let manifest_lines ~version (m : manifest) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    ("# " ^ (if version >= 2 then header_v2 else header) ^ "\n");
  Buffer.add_string buf ("f " ^ m.fingerprint ^ "\n");
  List.iter
    (fun (k, v) ->
       if String.contains k ' ' then
         invalid_arg "Store: manifest keys must not contain spaces";
       Buffer.add_string buf (record ~lead:false 'm' (k ^ " " ^ escape v)))
    m.meta;
  List.iteri
    (fun i label ->
       Buffer.add_string buf
         (record ~lead:false 't' (string_of_int i ^ " " ^ escape label)))
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
    (List.map (fun (i, payload) -> outcome_line ~lead:false i payload) outcomes)

let checkpoint_entries ~path ?(sync = false) (m : manifest)
    (entries : entry list) : t =
  checkpoint_gen ~path ~version:2 ~sync m (List.map entry_line entries)

let write_line (t : t) (line : string) : unit =
  match t.oc with
  | None -> invalid_arg "Store.append: store is closed"
  | Some oc ->
    output_string oc line;
    (* flush per record: a crash after [append] returns must find the
       record on the other side of the channel buffer *)
    flush oc;
    if t.sync then fsync_oc oc

let append (t : t) (index : int) (payload : string) : unit =
  write_line t (outcome_line ~lead:false index payload)

let append_entry (t : t) (e : entry) : unit =
  (match e with
   | Outcome _ -> ()
   | Lease _ | Heartbeat _ | Release _ ->
     if t.version < 2 then
       invalid_arg "Store.append_entry: lease records need a v2 store");
  write_line t (entry_line e)

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

(* Decode the checksummed body s[pos..stop) of a journal record ([esc]:
   it holds a '\\' or a '"'); [None] = a malformed body under a VALID
   checksum, which the torn-tail rule treats like any other damage. *)
let parse_entry (tag : char) s pos stop ~esc : entry option =
  if tag = 'o' then begin
    (* the payload is everything after the index, spaces and all *)
    let sp = ref pos in
    while !sp < stop && String.unsafe_get s !sp <> ' ' do incr sp done;
    match int_of_string_opt (String.sub s pos (!sp - pos)) with
    | None -> None
    | Some index ->
      let payload =
        if !sp < stop then String.sub s (!sp + 1) (stop - !sp - 1) else ""
      in
      if not esc then Some (Outcome { index; payload })
      else
        match unescape payload with
        | Ok payload -> Some (Outcome { index; payload })
        | Error _ -> None
  end
  else
    match (tag, String.split_on_char ' ' (String.sub s pos (stop - pos))) with
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
       | Some deadline_us when owner <> "" ->
         Some (Heartbeat { owner; deadline_us })
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

(* whether s[pos..pos+16) renders [h] *)
let digits_match s pos (h : int64) =
  let ok = ref true in
  for d = 0 to 15 do
    if String.unsafe_get s (pos + d) <> hash_digit h d then ok := false
  done;
  !ok

(* One pass over the line that starts at [pos]: returns [(stop, crc_ok,
   esc)], where [stop] is the offset of its '\n', or [String.length s]
   if it has none.  A line framed as a record, "<tag> <16 bytes> <rest>",
   is checked by the same loop that looks for its end: the loop hashes
   <rest> and notes a '\\' or a '"' in it.  [crc_ok] says whether the
   16 bytes are the hash's lower-case hex digits, and [esc] whether
   <rest> may need unescaping (both [false] for an unframed line).  A
   record line is thus read once, however long. *)
let scan s pos : int * bool * bool =
  let n = String.length s in
  let framed =
    pos + 18 < n
    && String.unsafe_get s pos <> '\n'
    && String.unsafe_get s (pos + 1) = ' '
    && String.unsafe_get s (pos + 18) = ' '
    &&
    let ok = ref true in
    for i = pos + 2 to pos + 17 do
      let c = String.unsafe_get s i in
      if c = ' ' || c = '\n' then ok := false
    done;
    !ok
  in
  if not framed then
    ((match String.index_from_opt s pos '\n' with Some i -> i | None -> n),
     false, false)
  else begin
    (* [h] stays unboxed: no closure captures it *)
    let h = ref fnv_offset_basis and esc = ref false in
    let i = ref (pos + 19) and more = ref true in
    while !more do
      if !i = n then more := false
      else begin
        let c = String.unsafe_get s !i in
        if c = '\n' then more := false
        else begin
          if c = '\\' || c = '"' then esc := true;
          h :=
            Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime;
          incr i
        end
      end
    done;
    (!i, digits_match s (pos + 2) !h, !esc)
  end

(* Feed the line s[pos..stop), with what [scan] found on it; a valid
   journal record comes back as [Some entry]. *)
let feed (r : reader) s pos stop ~crc_ok ~esc : entry option =
  let lineno = r.lineno in
  r.lineno <- lineno + 1;
  let line () = String.sub s pos (stop - pos) in
  (* the checksummed part of a record whose crc matched *)
  let rest () = String.sub s (pos + 19) (stop - pos - 19) in
  let fail msg =
    r.err <- Some (Printf.sprintf "%s: line %d: %s" r.r_path (lineno + 1) msg);
    None
  in
  let torn () = r.torn <- r.torn + 1; None in
  if r.err <> None then None
  else if lineno = 0 then begin
    let line = line () in
    if line = "# " ^ header_v2 then r.version <- 2;
    if line = expected_header r then None
    else fail (Printf.sprintf "expected header %S" (expected_header r))
  end
  else if stop = pos then None
  else
    match String.unsafe_get s pos with
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
      if (r.version < 2 && r.torn > 0) || not crc_ok then torn ()
      else (
        match parse_entry c s (pos + 19) stop ~esc with
        | Some _ as e -> e
        | None -> torn ())
    | _ when r.in_journal ->
      (* junk after the journal started: same torn-record treatment *)
      torn ()
    | 'f' ->
      (match split_once ' ' (line ()) with
       | Some ("f", fp) when r.fp = None -> r.fp <- Some fp; None
       | _ -> fail "malformed fingerprint record")
    | 'm' ->
      if not crc_ok then fail "manifest record failed its checksum"
      else (
        match split_once ' ' (rest ()) with
        | Some (k, v) ->
          (match unescape v with
           | Ok v -> r.meta <- (k, v) :: r.meta; None
           | Error e -> fail e)
        | None -> fail "malformed manifest record")
    | 't' ->
      if not crc_ok then fail "task record failed its checksum"
      else (
        match split_once ' ' (rest ()) with
        | Some (i, v) ->
          (match (int_of_string_opt i, unescape v) with
           | Some i, Ok v -> r.tasks <- (i, v) :: r.tasks; None
           | _ -> fail "malformed task record")
        | None -> fail "malformed task record")
    | _ -> fail (Printf.sprintf "unknown record %S" (line ()))

(* Feed [r] every '\n'-terminated line of [s], and with [~tail:true]
   the unterminated rest as well.  Returns the offset just past the
   last '\n' fed. *)
let feed_lines r s ~tail (k : entry -> unit) : int =
  let n = String.length s in
  let rec go pos =
    let stop, crc_ok, esc = scan s pos in
    if stop < n then begin
      Option.iter k (feed r s pos stop ~crc_ok ~esc);
      go (stop + 1)
    end
    else begin
      if tail then Option.iter k (feed r s pos n ~crc_ok ~esc);
      pos
    end
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

(* Point [f] at the file now at its path and return the size to read up
   to.  One [stat] of the path decides: the held descriptor stays if the
   path still names its file (held open, its inode number cannot have
   been reused) and that file was not truncated below [offset]; the size
   is then that file's.  Otherwise (first call, an atomic-rename
   checkpoint, a truncation) the fold starts over at offset 0 on a new
   descriptor, whose own [fstat] gives identity and size, so a rename
   racing this call cannot pair one file's offset with another file's
   bytes. *)
let reopen f : int =
  let st = Unix.stat f.f_path in
  if f.fd <> None
     && f.ident = (st.Unix.st_dev, st.Unix.st_ino)
     && st.Unix.st_size >= f.offset
  then st.Unix.st_size
  else begin
    let fd = Unix.openfile f.f_path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    match Unix.fstat fd with
    | exception e -> Unix.close fd; raise e
    | st ->
      unfollow f;
      f.fd <- Some fd;
      f.ident <- (st.Unix.st_dev, st.Unix.st_ino);
      f.offset <- 0;
      f.rd <- reader f.f_path;
      f.acc <- None;
      st.Unix.st_size
  end

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
