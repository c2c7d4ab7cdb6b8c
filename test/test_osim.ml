(* Simulated OS tests: VFS, network, process view. *)

open Ldx_osim

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let test_vfs_create_read_write () =
  let v = Vfs.create () in
  ok (Vfs.write_file v "/a.txt" "hello");
  check string "read back" "hello" (ok (Vfs.read_file v "/a.txt"));
  ok (Vfs.append_file v "/a.txt" "!");
  check string "appended" "hello!" (ok (Vfs.read_file v "/a.txt"))

let test_vfs_dirs () =
  let v = Vfs.create () in
  ok (Vfs.mkdir v "/d");
  ok (Vfs.write_file v "/d/x" "1");
  ok (Vfs.write_file v "/d/y" "2");
  check (Alcotest.list string) "readdir" [ "x"; "y" ] (ok (Vfs.readdir v "/d"));
  (match Vfs.write_file v "/nodir/z" "3" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "expected missing-dir error")

let test_vfs_rename_unlink () =
  let v = Vfs.create () in
  ok (Vfs.write_file v "/a" "data");
  ok (Vfs.rename v "/a" "/b");
  check bool "a gone" false (Vfs.exists v "/a");
  check string "b has data" "data" (ok (Vfs.read_file v "/b"));
  ok (Vfs.unlink v "/b");
  check bool "b gone" false (Vfs.exists v "/b")

let test_net_script_and_outbox () =
  let n = Net.create () in
  Net.add_endpoint n "srv" [ "m1"; "m2" ];
  let e = Net.connect n "srv" in
  check string "m1" "m1" (Net.recv e);
  ignore (Net.send e "out1");
  check string "m2" "m2" (Net.recv e);
  check string "eof" "" (Net.recv e);
  check (Alcotest.list string) "outbox" [ "out1" ] (Net.outbox e)

let test_world_instantiation () =
  let w =
    World.(
      empty
      |> with_dir "/var"
      |> with_file "/var/log" "x"
      |> with_file "/deep/nested/file" "y"
      |> with_endpoint "ep" [ "a" ])
  in
  let v = World.instantiate_vfs w in
  check string "log" "x" (ok (Vfs.read_file v "/var/log"));
  check string "nested" "y" (ok (Vfs.read_file v "/deep/nested/file"));
  let n = World.instantiate_net w in
  check bool "endpoint" true (Net.find n "ep" <> None)

let test_os_fd_lifecycle () =
  let os = Os.create World.(empty |> with_file "/in" "abcdef") in
  let fd = Sval.int_exn (Os.exec os "open" [ Sval.S "/in" ]) in
  check bool "fd >= 3" true (fd >= 3);
  check string "first 3" "abc" (Sval.str_exn (Os.exec os "read" [ Sval.I fd; Sval.I 3 ]));
  check string "rest" "def" (Sval.str_exn (Os.exec os "read" [ Sval.I fd; Sval.I 10 ]));
  check string "eof" "" (Sval.str_exn (Os.exec os "read" [ Sval.I fd; Sval.I 10 ]));
  ignore (Os.exec os "seek" [ Sval.I fd; Sval.I 1 ]);
  check string "after seek" "bcd" (Sval.str_exn (Os.exec os "read" [ Sval.I fd; Sval.I 3 ]));
  ignore (Os.exec os "close" [ Sval.I fd ])

let test_os_open_missing () =
  let os = Os.create World.empty in
  check int "open fails" (-1) (Sval.int_exn (Os.exec os "open" [ Sval.S "/nope" ]))

let test_os_deterministic_rand_time () =
  let mk () = Os.create World.empty in
  let seq os = List.map (fun _ -> Os.exec os "rand" []) [ 1; 2; 3 ] in
  check bool "same seed, same sequence" true (seq (mk ()) = seq (mk ()));
  let os = mk () in
  let t1 = Sval.int_exn (Os.exec os "time" []) in
  let t2 = Sval.int_exn (Os.exec os "time" []) in
  check bool "time advances" true (t2 > t1)

let test_os_malloc_retaddr_logs () =
  let os = Os.create World.empty in
  let a1 = Sval.int_exn (Os.exec os "malloc" [ Sval.I 64 ]) in
  let a2 = Sval.int_exn (Os.exec os "malloc" [ Sval.I 32 ]) in
  check bool "bump allocator" true (a2 > a1);
  ignore (Os.exec os "retaddr" [ Sval.I 0xdead ]);
  check (Alcotest.list int) "malloc log" [ 32; 64 ] os.Os.malloc_log;
  check (Alcotest.list int) "retaddr log" [ 0xdead ] os.Os.retaddr_log

let test_os_stdout () =
  let os = Os.create World.empty in
  ignore (Os.exec os "print" [ Sval.S "one " ]);
  ignore (Os.exec os "write" [ Sval.I 1; Sval.S "two" ]);
  check string "stdout" "one two" (Os.stdout_contents os)

let tests =
  [ Alcotest.test_case "vfs create/read/write" `Quick test_vfs_create_read_write;
    Alcotest.test_case "vfs dirs" `Quick test_vfs_dirs;
    Alcotest.test_case "vfs rename/unlink" `Quick test_vfs_rename_unlink;
    Alcotest.test_case "net script/outbox" `Quick test_net_script_and_outbox;
    Alcotest.test_case "world instantiation" `Quick test_world_instantiation;
    Alcotest.test_case "os fd lifecycle" `Quick test_os_fd_lifecycle;
    Alcotest.test_case "os open missing" `Quick test_os_open_missing;
    Alcotest.test_case "os deterministic rand/time" `Quick
      test_os_deterministic_rand_time;
    Alcotest.test_case "os malloc/retaddr logs" `Quick test_os_malloc_retaddr_logs;
    Alcotest.test_case "os stdout" `Quick test_os_stdout ]
