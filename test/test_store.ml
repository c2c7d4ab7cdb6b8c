(* lib/store: checksummed journal records, torn-write recovery, atomic
   checkpoint + append discipline, fingerprints.

   - record round-trip: checkpoint + appends load back verbatim;
   - torn tails: a file cut mid-record (or with a flipped checksum
     byte) loses exactly the damaged suffix, never the valid prefix;
   - manifest damage is a hard error (it is only ever written by an
     atomic rename, so corruption there is not a torn append);
   - fingerprints are length-prefixed (part boundaries matter). *)

module Store = Ldx_store.Store

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let tmp_path () = Filename.temp_file "ldx_test_store" ".journal"

let with_tmp f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let manifest =
  { Store.fingerprint = Store.fingerprint [ "test"; "manifest" ];
    meta = [ ("prog", "deadbeef"); ("note", "two words, a\ttab") ];
    tasks = [ "plain"; "with space"; "with\nnewline" ] }

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* leftmost occurrence of [needle] in [hay] (tests only; no Str dep) *)
let find_sub hay needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then
      Alcotest.failf "substring %S not found" needle
    else if String.sub hay i n = needle then i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Hashing and escaping primitives.                                    *)

(* FNV-1a 64 of the empty string is the offset basis; "a" and "foobar"
   are the standard published vectors.  Together they pin the constants,
   the per-byte step and the rendering — and thus every checksum in
   every journal. *)
let test_fnv_known_vector () =
  check string "offset basis" "cbf29ce484222325" (Store.hash_hex "");
  check string "\"a\"" "af63dc4c8601ec8c" (Store.hash_hex "a");
  check string "\"foobar\"" "85944171f73967e8" (Store.hash_hex "foobar");
  check string "fnv64 agrees with hash_hex" "85944171f73967e8"
    (Printf.sprintf "%016Lx" (Store.fnv64 "foobar"))

(* Strings recorded from an earlier build of the codec: the persisted
   bytes of every record kind must not move. *)
let test_codec_known_answers () =
  check string "fingerprint of no parts" "cbf29ce484222325"
    (Store.fingerprint []);
  check string "fingerprint" "842c07c5cd849828"
    (Store.fingerprint [ "ldx-campaign/1"; ""; "a b\n\"q\"\\"; "\x00\xff" ]);
  List.iter
    (fun (name, entry, line) ->
       check string name line (Store.entry_line entry))
    [ ( "outcome",
        Store.Outcome { index = 3; payload = "ok 1 \"q\"\\\n\t\x00\xff end" },
        "o 046ba8871af3f9a7 3 ok 1 \\\"q\\\"\\\\\\n\\t\\000\\255 end\n" );
      ( "lease",
        Store.Lease
          { index = 7; owner = "w0-12345"; epoch = 2;
            deadline_us = 1760000000123456 },
        "l c55d757af2a72d62 7 w0-12345 2 1760000000123456\n" );
      ( "heartbeat",
        Store.Heartbeat { owner = "w1-999"; deadline_us = 1760000000654321 },
        "h 14e385c2532ddf84 w1-999 1760000000654321\n" );
      ( "release",
        Store.Release { index = 0; owner = "w2-1"; epoch = 5 },
        "r 352eda49b0d599ed 0 w2-1 5\n" ) ]

(* The hex codec accepts exactly what it emits. *)
let test_hex_strict () =
  List.iter
    (fun s ->
       match Store.hex_decode s with
       | Ok v -> Alcotest.failf "hex_decode %S accepted, gave %S" s v
       | Error _ -> ())
    [ "4_"; "4A"; "AB"; "4"; "abc"; "4g"; "4 "; " 4"; "\x004"; "0x41"; "";
      "--"; "-0" ];
  List.iter
    (fun (hex, v) ->
       check (Alcotest.result string string) hex (Ok v) (Store.hex_decode hex))
    [ ("-", ""); ("41", "A"); ("00ff7f80", "\x00\xff\x7f\x80") ];
  check string "empty string encodes as -" "-" (Store.hex_encode "");
  check string "lower-case pairs" "00ff0a41" (Store.hex_encode "\x00\xff\nA")

let test_escape_round_trip () =
  List.iter
    (fun s ->
       (match Store.unescape (Store.escape s) with
        | Ok s' -> check string "escape round-trips" s s'
        | Error e -> Alcotest.failf "unescape failed on %S: %s" s e);
       check bool "escaped form is one line" false
         (String.contains (Store.escape s) '\n'))
    [ ""; "plain"; "two words"; "line\nbreak"; "tab\there"; {|back\slash|};
      "quote\"quote"; "\x00\x01\xff" ]

let test_fingerprint_boundaries () =
  check bool "part boundaries matter" true
    (Store.fingerprint [ "ab"; "c" ] <> Store.fingerprint [ "a"; "bc" ]);
  check string "equal parts, equal digest"
    (Store.fingerprint [ "x"; "y" ])
    (Store.fingerprint [ "x"; "y" ])

(* ------------------------------------------------------------------ *)
(* Round-trip.                                                         *)

let test_round_trip () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [ (0, "ok 1 aabb") ] in
  Store.append t 1 "crash 2 dead beef";
  Store.append t 2 "payload with\nnewline";
  Store.close t;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check string "fingerprint survives" manifest.Store.fingerprint
      l.Store.l_manifest.Store.fingerprint;
    check bool "meta survives in order" true
      (l.Store.l_manifest.Store.meta = manifest.Store.meta);
    check bool "task labels survive in task order" true
      (l.Store.l_manifest.Store.tasks = manifest.Store.tasks);
    check bool "outcomes survive in file order" true
      (l.Store.l_outcomes
       = [ (0, "ok 1 aabb"); (1, "crash 2 dead beef");
           (2, "payload with\nnewline") ]);
    check int "nothing torn" 0 l.Store.l_torn

(* Checkpointing again with more outcomes atomically replaces the file
   (the heal-the-tail move resume performs). *)
let test_re_checkpoint_replaces () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [ (0, "a") ] in
  Store.close t;
  let t = Store.checkpoint ~path manifest [ (0, "a"); (1, "b") ] in
  Store.append t 2 "c";
  Store.close t;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check bool "second checkpoint won" true
      (l.Store.l_outcomes = [ (0, "a"); (1, "b"); (2, "c") ])

(* ------------------------------------------------------------------ *)
(* Torn writes.                                                        *)

(* Cutting the file at EVERY byte position inside the journal section
   must recover exactly the records whose final newline made it to
   disk — and report the cut via [l_torn] whenever a partial record
   remains. *)
let test_torn_tail_every_cut () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [] in
  Store.append t 0 "first";
  Store.append t 1 "second";
  Store.close t;
  let text = read_all path in
  (* everything the checkpoint wrote ends where the first append begins *)
  let journal_start = find_sub text "\no " + 1 in
  let boundary_after n =
    (* byte offset just past the [n]th journal record's newline *)
    let rec skip i left =
      if left = 0 then i
      else skip (String.index_from text i '\n' + 1) (left - 1)
    in
    skip journal_start n
  in
  for cut = journal_start to String.length text do
    let sub = tmp_path () in
    Fun.protect
      ~finally:(fun () -> try Sys.remove sub with Sys_error _ -> ())
      (fun () ->
         Out_channel.with_open_bin sub (fun oc ->
             output_string oc (String.sub text 0 cut));
         match Store.load ~path:sub with
         | Error e -> Alcotest.failf "cut at %d: %s" cut e
         | Ok l ->
           (* a record survives iff every byte except (at most) its
              trailing newline made it to disk — the checksum decides *)
           let complete =
             if cut >= boundary_after 2 - 1 then 2
             else if cut >= boundary_after 1 - 1 then 1
             else 0
           in
           check int
             (Printf.sprintf "cut at %d keeps complete records" cut)
             complete
             (List.length l.Store.l_outcomes);
           (* a partial (checksum-failing) record on disk is reported *)
           let clean =
             cut = journal_start
             || cut >= boundary_after 1 - 1 && cut <= boundary_after 1
             || cut >= boundary_after 2 - 1
           in
           check bool
             (Printf.sprintf "cut at %d reports tearing iff mid-record" cut)
             (not clean)
             (l.Store.l_torn > 0))
  done

(* A checksum mismatch (bit rot, not truncation) also drops the record
   and everything after it — the file stops being trustworthy at the
   first bad checksum. *)
let test_corrupt_record_drops_suffix () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [] in
  Store.append t 0 "first";
  Store.append t 1 "second";
  Store.append t 2 "third";
  Store.close t;
  let text = read_all path in
  (* flip one payload byte of the SECOND journal record *)
  let i = find_sub text "second" in
  let b = Bytes.of_string text in
  Bytes.set b i 'S';
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Bytes.to_string b));
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check bool "only the record before the damage survives" true
      (l.Store.l_outcomes = [ (0, "first") ]);
    check int "damaged record and its suffix counted torn" 2 l.Store.l_torn

(* Manifest damage is NOT torn-tail recovery: the manifest comes from
   an atomic checkpoint, so a bad checksum there is real corruption. *)
let test_corrupt_manifest_is_error () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [ (0, "x") ] in
  Store.close t;
  let text = read_all path in
  let i = find_sub text "plain" in
  let b = Bytes.of_string text in
  Bytes.set b i 'P';
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Bytes.to_string b));
  (match Store.load ~path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected Error on a corrupt task record");
  (* and a wrong header is rejected outright *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc ("# ldx-store/999\n" ^ text));
  match Store.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on an unknown header"

let test_append_after_close_rejected () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [] in
  Store.close t;
  match Store.append t 0 "late" with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* v2: lease-queue journals.                                           *)

let v2_entries =
  [ Store.Lease { index = 0; owner = "w1"; epoch = 0; deadline_us = 500 };
    Store.Heartbeat { owner = "w1"; deadline_us = 900 };
    Store.Outcome { index = 0; payload = "ok 1 aa" };
    Store.Release { index = 1; owner = "w2"; epoch = 3 };
    Store.Outcome { index = 1; payload = "with\nnewline" } ]

let test_v2_round_trip () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint_entries ~path manifest [ List.hd v2_entries ] in
  List.iter (Store.append_entry t) (List.tl v2_entries);
  Store.close t;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check int "v2 header detected" 2 l.Store.l_version;
    check bool "entries survive in file order" true
      (l.Store.l_entries = v2_entries);
    check bool "l_outcomes is the Outcome projection" true
      (l.Store.l_outcomes = [ (0, "ok 1 aa"); (1, "with\nnewline") ]);
    check int "nothing torn" 0 l.Store.l_torn

(* v1 files still load as version 1, and lease-queue records cannot be
   appended to them (they would be invisible to v1 readers). *)
let test_v1_rejects_lease_entries () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint ~path manifest [] in
  Fun.protect ~finally:(fun () -> Store.close t) @@ fun () ->
  (match Store.load ~path with
   | Error e -> Alcotest.fail e
   | Ok l -> check int "v1 header detected" 1 l.Store.l_version);
  match
    Store.append_entry t
      (Store.Lease { index = 0; owner = "w"; epoch = 0; deadline_us = 1 })
  with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Multi-writer tear discipline: damage in the MIDDLE of a v2 journal
   (a worker SIGKILLed mid-write, peers kept appending) loses exactly
   the damaged record — v1's drop-the-suffix rule would throw away the
   valid records after it, which other live writers own. *)
let test_v2_damage_drops_record_not_suffix () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint_entries ~path manifest [] in
  List.iter (Store.append_entry t) v2_entries;
  Store.close t;
  let text = read_all path in
  let i = find_sub text "w2" in
  let b = Bytes.of_string text in
  Bytes.set b i 'W';
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Bytes.to_string b));
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check int "exactly the damaged record is torn" 1 l.Store.l_torn;
    check bool "records after the damage survive" true
      (l.Store.l_entries
       = List.filter (fun e -> e <> List.nth v2_entries 3) v2_entries)

(* A killed writer's half-line is terminated by the next appender's
   leading newline, so it fails its checksum in isolation. *)
let test_v2_half_line_isolated () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint_entries ~path manifest [] in
  Store.append_entry t
    (Store.Lease { index = 0; owner = "w1"; epoch = 0; deadline_us = 9 });
  Store.close t;
  (* a peer died mid-write: no trailing newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "\nl 0123456789abcdef 1 w";
  close_out oc;
  (* a healthy peer appends after it, leading newline first *)
  let line =
    Store.entry_line
      (Store.Outcome { index = 0; payload = "done" })
  in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc ("\n" ^ line);
  close_out oc;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check int "the half-line alone is torn" 1 l.Store.l_torn;
    check bool "both healthy records survive" true
      (l.Store.l_entries
       = [ Store.Lease { index = 0; owner = "w1"; epoch = 0; deadline_us = 9 };
           Store.Outcome { index = 0; payload = "done" } ])

let test_entry_line_rejects_spacey_owner () =
  match
    Store.entry_line
      (Store.Lease { index = 0; owner = "two words"; epoch = 0;
                     deadline_us = 0 })
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ?sync is a durability knob, not a format change: a synced store
   loads back exactly like an unsynced one. *)
let test_sync_smoke () =
  with_tmp @@ fun path ->
  let t = Store.checkpoint_entries ~path ~sync:true manifest [] in
  Store.append_entry t (Store.Outcome { index = 0; payload = "ok" });
  Store.close t;
  match Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check bool "synced store loads back" true
      (l.Store.l_outcomes = [ (0, "ok") ] && l.Store.l_torn = 0)

(* ------------------------------------------------------------------ *)
(* Codec properties.                                                   *)

(* Random byte strings in which '\\' and '"' are common, so that both
   the scanner's escapes (valid and broken) and the fast path's
   no-escape strings come up. *)
let gen_escapey =
  QCheck2.Gen.(
    string_size ~gen:(frequency [ (3, return '\\'); (2, return '"');
                                  (1, oneofl [ 'n'; 't'; '0'; '1'; 'x'; 'f' ]);
                                  (4, char) ])
      (int_bound 24))

let prop_unescape_is_scanf =
  QCheck2.Test.make ~count:2000 ~print:String.escaped
    ~name:"unescape agrees with Scanf.unescaped (value or failure)"
    gen_escapey
    (fun s ->
       let scanf =
         match Scanf.unescaped s with v -> Some v | exception _ -> None
       in
       match (Store.unescape s, scanf) with
       | Ok v, Some w -> String.equal v w
       | Error _, None -> true
       | _ -> false)

let prop_hex_round_trip =
  QCheck2.Test.make ~count:1000 ~print:String.escaped
    ~name:"hex_decode inverts hex_encode" QCheck2.Gen.string
    (fun s -> Store.hex_decode (Store.hex_encode s) = Ok s)

(* ------------------------------------------------------------------ *)
(* Golden: the writer's bytes and the reader's decisions.              *)

(* [store_golden.txt] holds one MD5 per corpus entry, recorded from an
   earlier build of the codec.  The writer digests pin the bytes of
   every record kind, of both checkpoint formats and of multi-writer
   appends.  The reader digests pin every decision [Store.load] and a
   follower make on a record damaged at every byte: accepted or torn,
   the decoded entries and manifest, and the message of a refused
   file.  Any change to the codec must leave every digest unchanged. *)

(* splitmix64, so the writer corpus does not depend on [Random] *)
let splitmix seed =
  let s = ref seed in
  fun bound ->
    s := Int64.add !s 0x9e3779b97f4a7c15L;
    let mix z k m =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z k)) m
    in
    let z = mix (mix !s 30 0xbf58476d1ce4e5b9L) 27 0x94d049bb133111ebL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.unsigned_rem z (Int64.of_int bound))

(* payloads mixing printable text with every byte class the escaper
   rewrites *)
let golden_payload next =
  String.init (next 48) (fun _ ->
      if next 4 = 0 then "\\\"\n\t\r\b\x00\x1f\x7f\x80\xff ".[next 12]
      else Char.chr (32 + next 95))

let golden_entries () =
  let next = splitmix 0x1d5L in
  List.init 400 (fun _ ->
      let index =
        match next 8 with 0 -> -1 | 1 | 2 | 3 -> next 10 | _ -> next 10_000_000
      in
      let owner =
        Printf.sprintf "w%d.%d.p%d" (next 8) (next 100) (next 100_000)
      in
      let epoch = next 50 in
      let deadline_us = 1_700_000_000_000_000 + next 1_000_000_000 in
      match next 4 with
      | 0 -> Store.Lease { index; owner; epoch; deadline_us }
      | 1 -> Store.Heartbeat { owner; deadline_us }
      | 2 -> Store.Release { index; owner; epoch }
      | _ -> Store.Outcome { index; payload = golden_payload next })

let escapey_manifest =
  { Store.fingerprint = "fp-0123";
    meta = [ ("prog", "dead\"beef"); ("note", "tab\there\nnl \\ \xff") ];
    tasks = [ "plain"; "with space"; "with\nnewline"; "q\"\\"; "" ] }

let writer_digests () =
  let entries = golden_entries () in
  let md5 s = Digest.to_hex (Digest.string s) in
  let file write = with_tmp (fun path -> write path; read_all path) in
  [ ("writer-entry-lines",
     md5 (String.concat "" (List.map Store.entry_line entries)));
    ("writer-checkpoint-v2",
     md5 (file (fun path ->
         Store.close
           (Store.checkpoint_entries ~path escapey_manifest entries))));
    ("writer-checkpoint-v1",
     md5 (file (fun path ->
         let outcomes =
           List.filter_map
             (function
               | Store.Outcome { index; payload } -> Some (index, payload)
               | _ -> None)
             entries
         in
         let half = List.length outcomes / 2 in
         let t =
           Store.checkpoint ~path escapey_manifest
             (List.filteri (fun i _ -> i < half) outcomes)
         in
         List.iteri
           (fun i (index, payload) ->
              if i >= half then Store.append t index payload)
           outcomes;
         Store.close t)));
    ("writer-queue-append",
     md5 (file (fun path ->
         Store.close (Store.checkpoint_entries ~path escapey_manifest []);
         List.iter (Ldx_queue.Queue.append ~path) entries))) ]

(* a record line (no newline) with a valid checksum over any body *)
let crafted tag rest = Printf.sprintf "%c %s %s" tag (Store.hash_hex rest) rest

let line_of e =
  let l = Store.entry_line e in
  String.sub l 0 (String.length l - 1)

(* Journal records the writer emits, with payloads that need escaping
   or are empty, and one- and many-digit indexes. *)
let record_corpus =
  [ ("outcome-hex",
     line_of (Store.Outcome { index = 0; payload = "0a1b2c3d4e5f" }));
    ("outcome-escapes",
     line_of
       (Store.Outcome
          { index = 7; payload = "q\"\\ \n\t\r\b\x00\x1f\x7f\x80\xff" }));
    ("outcome-empty", line_of (Store.Outcome { index = 42; payload = "" }));
    ("outcome-spaces",
     line_of (Store.Outcome { index = 1234567; payload = " two  words " }));
    ("outcome-negative", line_of (Store.Outcome { index = -1; payload = "x" }));
    ("lease",
     line_of
       (Store.Lease
          { index = 0; owner = "w0.1.p42"; epoch = 0;
            deadline_us = 1760000000123456 }));
    ("lease-multidigit",
     line_of
       (Store.Lease
          { index = 98765; owner = "k3.12"; epoch = 17; deadline_us = 5 }));
    ("heartbeat",
     line_of
       (Store.Heartbeat { owner = "w1-999"; deadline_us = 1760000000654321 }));
    ("release",
     line_of (Store.Release { index = 10; owner = "w2-1"; epoch = 5 })) ]

(* Bodies the writer never emits, under valid checksums: they reach the
   body parser. *)
let crafted_corpus =
  [ ("crafted-o-hex-index", crafted 'o' "0x1f p");
    ("crafted-o-plus-index", crafted 'o' "+5 p");
    ("crafted-o-underscore-index", crafted 'o' "1_000 p");
    ("crafted-o-zero-padded", crafted 'o' "007 p");
    ("crafted-o-overflow", crafted 'o' "99999999999999999999 p");
    ("crafted-o-no-payload", crafted 'o' "5");
    ("crafted-o-empty-rest", crafted 'o' "");
    ("crafted-o-space-first", crafted 'o' " 3 p");
    ("crafted-o-bad-escape", crafted 'o' "1 bad\\q");
    ("crafted-o-bare-quote", crafted 'o' "1 a\"b");
    ("crafted-o-valid-escapes", crafted 'o' "2 a\\tb\\\\c\\\"d\\065");
    ("crafted-o-upper-crc",
     "o " ^ String.uppercase_ascii (Store.hash_hex "3 abc") ^ " 3 abc");
    ("crafted-l-three-fields", crafted 'l' "1 w 2");
    ("crafted-l-empty-owner", crafted 'l' "1  2 3");
    ("crafted-l-five-fields", crafted 'l' "1 w 2 3 4");
    ("crafted-h-empty-owner", crafted 'h' " 5");
    ("crafted-h-bad-deadline", crafted 'h' "w 5x");
    ("crafted-r-hex-epoch", crafted 'r' "1 w 0x10");
    ("crafted-z-unknown-tag", crafted 'z' "1 p");
    ("crafted-m-in-journal", crafted 'm' "k v");
    ("crafted-t-in-journal", crafted 't' "0 label");
    ("comment", "# a comment");
    ("blank", "") ]

(* Extra manifest records, inserted after the task records. *)
let manifest_corpus =
  [ ("manifest-m-no-value", crafted 'm' "novalue");
    ("manifest-m-bad-escape", crafted 'm' "k a\\q");
    ("manifest-t-bad-index", crafted 't' "x label");
    ("manifest-t-bad-escape", crafted 't' "1 a\\q");
    ("manifest-second-f", "f other");
    ("manifest-z-unknown", crafted 'z' "1 p");
    ("manifest-lease-record",
     line_of (Store.Heartbeat { owner = "w"; deadline_us = 1 })) ]

(* [line] damaged at every byte: one bit flipped, cut short, and with a
   '\\', a '"' or a newline inserted *)
let damaged line =
  let n = String.length line in
  let at i s = String.sub line 0 i ^ s ^ String.sub line i (n - i) in
  line
  :: List.concat
       (List.init n (fun i ->
            let b = Bytes.of_string line in
            Bytes.set b i (Char.chr (Char.code line.[i] lxor 1));
            [ Bytes.to_string b; String.sub line 0 i; at i "\\"; at i "\"";
              at i "\n" ]))
  @ [ at n "\\"; at n "\""; at n "\n" ]

let show_entry = function
  | Store.Outcome { index; payload } -> Printf.sprintf "o %d %S" index payload
  | Store.Lease { index; owner; epoch; deadline_us } ->
    Printf.sprintf "l %d %S %d %d" index owner epoch deadline_us
  | Store.Heartbeat { owner; deadline_us } ->
    Printf.sprintf "h %S %d" owner deadline_us
  | Store.Release { index; owner; epoch } ->
    Printf.sprintf "r %d %S %d" index owner epoch

let show_manifest (m : Store.manifest) =
  Printf.sprintf "f=%S meta=[%s] tasks=[%s]" m.Store.fingerprint
    (String.concat ";"
       (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) m.Store.meta))
    (String.concat ";" (List.map (Printf.sprintf "%S") m.Store.tasks))

(* the message names the file, which is not part of the decision *)
let show_error ~path e =
  if String.starts_with ~prefix:path e then
    let n = String.length path in
    "error <path>" ^ String.sub e n (String.length e - n)
  else "error " ^ e

let show_load ~path =
  match Store.load ~path with
  | Error e -> show_error ~path e
  | Ok l ->
    Printf.sprintf "load v%d torn=%d %s | %s | %s" l.Store.l_version
      l.Store.l_torn (show_manifest l.Store.l_manifest)
      (String.concat "; " (List.map show_entry l.Store.l_entries))
      (String.concat "; "
         (List.map (fun (i, p) -> Printf.sprintf "%d:%S" i p)
            l.Store.l_outcomes))

let show_catch_up ~path f =
  match Store.catch_up f with
  | Error e -> show_error ~path e
  | Ok ((m, entries), torn) ->
    Printf.sprintf "follow torn=%d %s | %s" torn (show_manifest m)
      (String.concat "; " (List.rev_map show_entry !entries))

let collecting_follower path =
  Store.follow ~path ~init:(fun m -> (m, ref [])) ~step:(fun (_, l) e ->
      l := e :: !l)

(* Every decision on one file, read two ways: a follower catching up
   on the first [split] bytes and again once the rest is appended, and
   [Store.load]. *)
let decisions buf path text ~split =
  let line s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub text 0 split));
  let f = collecting_follower path in
  line (show_catch_up ~path f);
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc (String.sub text split (String.length text - split)));
  line (show_catch_up ~path f);
  Store.unfollow f;
  line (show_load ~path)

let golden_manifest =
  { Store.fingerprint = "fp0123";
    meta = [ ("k", "v \"q\"") ];
    tasks = [ "a"; "b c" ] }

(* the manifest lines a checkpoint of [version] writes *)
let manifest_lines version =
  with_tmp @@ fun path ->
  Store.close
    (if version = 1 then Store.checkpoint ~path golden_manifest []
     else Store.checkpoint_entries ~path golden_manifest []);
  String.split_on_char '\n' (read_all path) |> List.filter (( <> ) "")

let before = line_of (Store.Outcome { index = 0; payload = "before" })
let after = line_of (Store.Outcome { index = 1; payload = "after" })

let reader_digests () =
  let m1 = manifest_lines 1 and m2 = manifest_lines 2 in
  with_tmp @@ fun path ->
  (* each case: the file's lines, whether the last one is terminated,
     and the line in whose middle the follower's first catch-up stops *)
  let digest name cases =
    let buf = Buffer.create 65536 in
    List.iter
      (fun (lines, terminated, k) ->
         let text =
           String.concat "\n" lines ^ if terminated then "\n" else ""
         in
         let split =
           List.fold_left (fun n l -> n + String.length l + 1) 0
             (List.filteri (fun i _ -> i < k) lines)
           + (String.length (List.nth lines k) / 2)
         in
         decisions buf path text ~split:(min split (String.length text)))
      cases;
    (name, Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  (* v1 and v2 tear rules with a record after the damage, and the
     damaged line last and unterminated *)
  let journal variants (name, line) =
    digest name
      (List.concat_map
         (fun d ->
            [ (m1 @ [ before; d; after ], true, List.length m1 + 1);
              (m2 @ [ before; d; after ], true, List.length m2 + 1);
              (m2 @ [ before; d ], false, List.length m2 + 1) ])
         (variants line))
  in
  let manifest_record (name, line) =
    digest name
      (List.map
         (fun m -> (m @ [ line; before; after ], true, List.length m))
         [ m1; m2 ])
  in
  let manifest_line k =
    digest (Printf.sprintf "manifest-line-%d" k)
      (List.map
         (fun d ->
            (List.mapi (fun i l -> if i = k then d else l) m2
             @ [ before; after ],
             true, k))
         (damaged (List.nth m2 k)))
  in
  List.map (journal damaged) record_corpus
  @ List.map (journal (fun l -> [ l ])) crafted_corpus
  @ List.map manifest_record manifest_corpus
  @ List.init (List.length m2) manifest_line

let golden_digests () = writer_digests () @ reader_digests ()

let test_golden () =
  let expected =
    In_channel.with_open_text "store_golden.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
        match String.split_on_char ' ' l with
        | [ name; d ] -> Some (name, d)
        | _ -> None)
  in
  let got = golden_digests () in
  check int "corpus size" (List.length expected) (List.length got);
  let wrong =
    List.filter_map
      (fun ((n, d), (n', d')) ->
         if String.equal n n' && String.equal d d' then None
         else Some (Printf.sprintf "%s: golden %s, got %s %s" n d n' d'))
      (List.combine expected got)
  in
  Alcotest.(check (list string)) "codec digests" [] wrong

let tests =
  [ Alcotest.test_case "fnv-1a known vector" `Quick test_fnv_known_vector;
    Alcotest.test_case "codec known answers" `Quick test_codec_known_answers;
    Alcotest.test_case "hex decoding is strict" `Quick test_hex_strict;
    QCheck_alcotest.to_alcotest prop_unescape_is_scanf;
    QCheck_alcotest.to_alcotest prop_hex_round_trip;
    Alcotest.test_case "escape round-trips payloads" `Quick
      test_escape_round_trip;
    Alcotest.test_case "fingerprint part boundaries matter" `Quick
      test_fingerprint_boundaries;
    Alcotest.test_case "checkpoint + append round-trip" `Quick
      test_round_trip;
    Alcotest.test_case "re-checkpoint atomically replaces" `Quick
      test_re_checkpoint_replaces;
    Alcotest.test_case "torn tail recovered at every cut point" `Quick
      test_torn_tail_every_cut;
    Alcotest.test_case "corrupt record drops its suffix" `Quick
      test_corrupt_record_drops_suffix;
    Alcotest.test_case "corrupt manifest is a hard error" `Quick
      test_corrupt_manifest_is_error;
    Alcotest.test_case "append after close rejected" `Quick
      test_append_after_close_rejected;
    Alcotest.test_case "v2 entry round-trip" `Quick test_v2_round_trip;
    Alcotest.test_case "v1 rejects lease entries" `Quick
      test_v1_rejects_lease_entries;
    Alcotest.test_case "v2 damage drops the record, not the suffix" `Quick
      test_v2_damage_drops_record_not_suffix;
    Alcotest.test_case "v2 half-written line is isolated" `Quick
      test_v2_half_line_isolated;
    Alcotest.test_case "entry_line rejects owners with spaces" `Quick
      test_entry_line_rejects_spacey_owner;
    Alcotest.test_case "sync mode loads back identically" `Quick
      test_sync_smoke;
    Alcotest.test_case "writer bytes and reader decisions match golden"
      `Quick test_golden ]
