(* Baselines and engine extensions: TightLip, DualEx cost model, source
   attribution, final-state (file metadata) checking, trace view, table
   rendering. *)

module Engine = Ldx_core.Engine
module Tightlip = Ldx_core.Tightlip
module Dualex = Ldx_core.Dualex_index
module Attribute = Ldx_core.Attribute
module Table = Ldx_report.Table
module Trace_view = Ldx_report.Trace_view
module World = Ldx_osim.World
module Lower = Ldx_cfg.Lower
module Counter = Ldx_instrument.Counter

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let instrument src = fst (Counter.instrument (Lower.lower_source src))

let benign_chunked_reader =
  (* chunk size perturbs the syscall sequence but not the outputs *)
  {| fn main() {
       let cfd = open("/etc/conf");
       let chunk = atoi(read(cfd, 4));
       close(cfd);
       let fd = open("/data/in");
       let text = "";
       let piece = read(fd, chunk);
       while (piece != "") { text = text + piece; piece = read(fd, chunk); }
       close(fd);
       print(text);
     } |}

let benign_world =
  World.(
    empty |> with_dir "/etc" |> with_dir "/data"
    |> with_file "/etc/conf" "4"
    |> with_file "/data/in" "constant-content")

let conf_source =
  { Engine.default_config with
    Engine.sources = [ Engine.source ~sys:"read" ~arg:"/etc/conf" () ];
    sinks = Engine.File_outputs }

(* --- TightLip --- *)

let test_tightlip_flags_benign_divergence () =
  (* LDX: benign (no leak); TightLip: terminates and cries leak *)
  let prog = instrument benign_chunked_reader in
  let ldx = Engine.run ~config:conf_source prog benign_world in
  check bool "LDX: no leak" false ldx.Engine.leak;
  check bool "LDX: but diffs happened" true (ldx.Engine.syscall_diffs > 0);
  let tl = Tightlip.run ~config:conf_source prog benign_world in
  check bool "TightLip: leak reported" true tl.Tightlip.leak_reported;
  check bool "TightLip: terminated early" true tl.Tightlip.terminated_early

let test_tightlip_accepts_identical () =
  let prog = instrument benign_chunked_reader in
  let config = { conf_source with Engine.sources = [] } in
  let tl = Tightlip.run ~config prog benign_world in
  check bool "no leak" false tl.Tightlip.leak_reported;
  check bool "ran to completion" false tl.Tightlip.terminated_early;
  check int "all syscalls matched" tl.Tightlip.total_master_syscalls
    tl.Tightlip.syscalls_before_mismatch

let test_tightlip_window_tolerates_one () =
  (* with a look-ahead window, a single dropped syscall can be skipped *)
  let src =
    {| fn main() {
         let s = socket("c");
         let v = atoi(recv(s));
         if (v == 1) { let x = stat("/etc/conf"); }
         print("end");
       } |}
  in
  let world = World.(empty |> with_file "/etc/conf" "x" |> with_endpoint "c" [ "1" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.File_outputs }
  in
  let prog = instrument src in
  let strict = Tightlip.run ~config ~window:0 prog world in
  let windowed = Tightlip.run ~config ~window:2 prog world in
  check bool "strict flags it" true strict.Tightlip.leak_reported;
  check bool "window skips the stat" false windowed.Tightlip.leak_reported

(* --- DualEx cost model --- *)

let test_dualex_orders_of_magnitude () =
  let prog = instrument benign_chunked_reader in
  let native = Engine.native_cycles benign_chunked_reader benign_world in
  let r = Engine.run ~config:conf_source prog benign_world in
  let est = Dualex.of_result ~native_cycles:native r in
  check bool "ldx under 50%" true (est.Dualex.ldx_overhead < 0.5);
  check bool "dualex over 100x" true (est.Dualex.dualex_overhead > 100.0);
  check bool "gap is orders of magnitude" true
    (est.Dualex.dualex_overhead /. Float.max 0.001 est.Dualex.ldx_overhead
     > 1000.0)

(* --- source attribution --- *)

let attribution_src =
  {| fn main() {
       let s = socket("c");
       let a = recv(s);
       let b = recv(s);
       send(s, "first:" + a);
       send(s, "second:" + b);
     } |}

let test_attribution_per_source () =
  let world = World.(empty |> with_endpoint "c" [ "alpha"; "beta" ]) in
  let config =
    { Engine.default_config with
      Engine.sources =
        [ Engine.source ~sys:"recv" ~nth:1 ();
          Engine.source ~sys:"recv" ~nth:2 () ];
      sinks = Engine.Network_outputs }
  in
  let prog = instrument attribution_src in
  let attrs = Attribute.per_source ~config prog world in
  check int "two attributions" 2 (List.length attrs);
  List.iter
    (fun (a : Attribute.attribution) ->
       check int "each source flips exactly one sink" 1
         a.Attribute.result.Engine.tainted_sinks)
    attrs;
  let matrix = Attribute.sink_matrix attrs in
  check int "two sinks attributed" 2 (List.length matrix);
  List.iter
    (fun (_, sources) -> check int "one source per sink" 1 (List.length sources))
    matrix;
  check bool "render mentions sinks" true
    (String.length (Attribute.render attrs) > 0)

(* --- final-state (file/metadata) checking --- *)

let test_final_state_contents () =
  (* the secret flows into a local file no sink config watches *)
  let src =
    {| fn main() {
         let s = socket("c");
         let secret = recv(s);
         let fd = creat("/var/cache");
         write(fd, secret);
         close(fd);
         send(s, "ok");
       } |}
  in
  let world = World.(empty |> with_dir "/var" |> with_endpoint "c" [ "topsecret" ]) in
  let base =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs }
  in
  let prog = instrument src in
  let without = Engine.run ~config:base prog world in
  check bool "network sinks alone: silent" false without.Engine.leak;
  let with_check =
    Engine.run ~config:{ base with Engine.check_final_state = true } prog world
  in
  check bool "final-state check: leak" true with_check.Engine.leak;
  check bool "file-state kind" true
    (List.exists
       (fun r -> r.Engine.kind = Engine.File_state_differs)
       with_check.Engine.reports)

let test_final_state_metadata () =
  (* same contents, different write pattern: only mtimes differ *)
  let src =
    {| fn main() {
         let s = socket("c");
         let n = atoi(recv(s));
         let fd = creat("/var/flag");
         write(fd, "xx");
         close(fd);
         // rewrite the same contents n times: data equal, mtime differs
         for (let i = 0; i < n; i = i + 1) {
           let fd2 = creat("/var/flag");
           write(fd2, "xx");
           close(fd2);
         }
         send(s, "done");
       } |}
  in
  let world = World.(empty |> with_dir "/var" |> with_endpoint "c" [ "2" ]) in
  let config =
    { Engine.default_config with
      Engine.sources = [ Engine.source ~sys:"recv" () ];
      sinks = Engine.Network_outputs;
      check_final_state = true }
  in
  let r = Engine.run ~config (instrument src) world in
  check bool "metadata leak caught" true
    (List.exists
       (fun rep -> rep.Engine.kind = Engine.File_metadata_differs)
       r.Engine.reports)

let test_final_state_quiet_when_aligned () =
  let config = { conf_source with Engine.sources = [];
                 Engine.check_final_state = true } in
  let r =
    Executed.run ~config (instrument benign_chunked_reader) benign_world
  in
  check bool "no reports" false r.Engine.leak

(* --- trace view --- *)

let test_trace_view_renders_actions () =
  let prog = instrument benign_chunked_reader in
  let out = Trace_view.side_by_side ~config:conf_source prog benign_world in
  check bool "has copied rows" true
    (Ldx_vm.Eval.string_hash out >= 0
     && String.length out > 0
     &&
     let contains hay needle =
       let hn = String.length hay and nn = String.length needle in
       let found = ref false in
       for i = 0 to hn - nn do
         if (not !found) && String.sub hay i nn = needle then found := true
       done;
       !found
     in
     contains out "[copied]"
     && (contains out "[args-differ]" || contains out "[master-only]"
         || contains out "[slave-only]" || contains out "[decoupled]"))

(* --- table rendering --- *)

let test_table_render () =
  let t =
    Table.make ~title:"T" ~headers:[ "a"; "bb" ]
      ~aligns:[ Table.Left; Table.Right ]
      ~notes:[ "note" ]
      [ [ "x"; "1" ]; [ "yyyy"; "22" ] ]
  in
  let s = Table.render t in
  check bool "title" true (String.length s > 0);
  check bool "pads columns" true
    (let lines = String.split_on_char '\n' s in
     let widths =
       List.filter_map
         (fun l -> if String.length l > 0 && l.[0] = '|' then Some (String.length l) else None)
         lines
     in
     match widths with [] -> false | w :: rest -> List.for_all (( = ) w) rest)

let test_table_stats () =
  check bool "mean" true (Table.mean [ 1.0; 2.0; 3.0 ] = 2.0);
  check bool "geomean of equal" true
    (abs_float (Table.geomean [ 4.0; 4.0 ] -. 4.0) < 1e-9);
  check bool "stddev of constant" true (Table.stddev [ 5.0; 5.0; 5.0 ] = 0.0);
  check (Alcotest.pair int int) "min_max" (1, 9) (Table.min_max [ 3; 1; 9; 4 ]);
  check string "pct" "6.08%" (Table.pct 0.0608)

let tests =
  [ Alcotest.test_case "tightlip flags benign divergence" `Quick
      test_tightlip_flags_benign_divergence;
    Alcotest.test_case "tightlip accepts identical" `Quick
      test_tightlip_accepts_identical;
    Alcotest.test_case "tightlip window" `Quick test_tightlip_window_tolerates_one;
    Alcotest.test_case "dualex cost gap" `Quick test_dualex_orders_of_magnitude;
    Alcotest.test_case "attribution per source" `Quick test_attribution_per_source;
    Alcotest.test_case "final state contents" `Quick test_final_state_contents;
    Alcotest.test_case "final state metadata" `Quick test_final_state_metadata;
    Alcotest.test_case "final state quiet" `Quick test_final_state_quiet_when_aligned;
    Alcotest.test_case "trace view" `Quick test_trace_view_renders_actions;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table stats" `Quick test_table_stats ]
