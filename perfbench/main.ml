(* perfbench: the repository's benchmark.  One process drives the
   library's public API in a closed loop with one client (jobs = 1, one
   in-process lease worker, heartbeats off).  See README.md for the
   workloads, the metrics and the traced run.

     main.exe --workload oneshot|incremental|service --seed N
              --seconds S --trace 0|1

   Prints human-readable detail on stderr, a configuration stamp line
   on stdout and, as the last line of stdout, the JSON result. *)

open Common

let workloads =
  [ ("oneshot", Oneshot.setup); ("incremental", Incremental.setup);
    ("service", Service.setup) ]

(* Set-ups per untraced run; setup_s is their median.  Five run back
   to back before the first timed request and six after the loop, so
   the median samples both ends of the run.  Each starts from a
   compacted heap with no other workload alive; the loop runs on the
   last one before it, and the heap is compacted again before the loop
   starts, so no set-up's garbage lands on a timed request. *)
let setups_before = 5
let setups_after = 6

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload = ref ""
let seed = ref 1
let seconds = ref 30
let trace = ref 0
let out_dir = ref ".perfbench"
let commit = ref ""
let nproc = ref 0

let usage =
  "main.exe --workload oneshot|incremental|service --seed N --seconds S \
   --trace 0|1"

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced (1) run");
      ("--out-dir", Arg.Set_string out_dir, "DIR for spans and temp journals");
      ("--commit", Arg.Set_string commit, "SHA stamped on the result");
      ("--nproc", Arg.Set_int nproc, "N usable CPUs, stamped on the result") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline ("unknown workload '" ^ !workload ^ "'\n" ^ usage);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end

let traced_run = !trace = 1

(* ------------------------------------------------------------------ *)
(* Helpers *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  go ()

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
            unit_)
       ms)

(* ------------------------------------------------------------------ *)
(* The closed loop *)

(* What the loop keeps: each distinct (kind, product response, replay
   response) with its first request and count, the per-request
   latencies of the product calls (CPU ms) in buffers allocated up
   front, as measured and at the reference speed, the verdicts and the
   requests' summed time, and the verdicts and wall time of every
   cycle.  Only the list of raised exceptions and the cycle list grow,
   so peak RSS does not depend on how many requests a run completes. *)
type loop = {
  answers : (int * response * response option, int * int ref) Hashtbl.t;
      (** first request index, count *)
  mutable raised : (int * int * string) list;
  lat : Float.Array.t;
  lat_ref : Float.Array.t;
  mutable n_lat : int;
  mutable n : int;
  mutable verdicts : int;
  mutable req_ms : float;
  mutable req_ref_ms : float;
  mutable cycles : (int * float) list;  (** verdicts, wall seconds *)
}

let lat_capacity = 1 lsl 18

(* Whole cycles, so every run carries the same mix of kinds, until the
   cycles add up to [--seconds] of wall time.  Each request runs the
   product call, timed in CPU time; the untraced run then lets the
   calibration kernel catch up ([cal]), and at the end of a cycle
   scales the cycle's times by the slowdown its kernel runs measured.
   In the traced run the same request then runs again as its replay,
   one span per public call, under a "replay" root beside the product
   call's "product" span. *)
let run_loop ?cal (wl : Common.t) sp =
  let st =
    { answers = Hashtbl.create 64; raised = [];
      lat = Float.Array.make lat_capacity 0.;
      lat_ref = Float.Array.make lat_capacity 0.; n_lat = 0; n = 0;
      verdicts = 0; req_ms = 0.; req_ref_ms = 0.; cycles = [] }
  in
  let rng = Random.State.make [| !seed; 0x100b |] in
  let elapsed = ref 0. in
  while !elapsed < float_of_int !seconds || st.cycles = [] do
    let verdicts = ref 0 in
    let first_lat = st.n_lat and cycle_ms = ref 0. in
    let mark = Option.map Calib.mark cal in
    let c0 = Stats.now_ns () in
    Array.iter
      (fun kind ->
         if traced_run then
           Spans.begin_request sp ~phase:Spans.Loop ~kind:(wl.describe kind);
         let t0 = Calib.cpu_ms () in
         let product =
           try
             Ok
               (if traced_run then
                  Spans.span sp "product" "product" (fun () -> wl.run kind)
                else wl.run kind)
           with e -> Error (Printexc.to_string e)
         in
         let lat = Calib.cpu_ms () -. t0 in
         cycle_ms := !cycle_ms +. lat;
         Option.iter (fun cal -> Calib.keep_up cal lat) cal;
         let result =
           match product with
           | Error e -> Error e
           | Ok p when not traced_run -> Ok (p, None)
           | Ok p -> (
               match
                 Spans.span sp "replay" "replay" (fun () -> wl.traced sp kind)
               with
               | r, probes ->
                 (try probes ()
                  with e -> prerr_endline ("probe failed: " ^ Printexc.to_string e));
                 Ok (p, Some r)
               | exception e -> Error ("replay: " ^ Printexc.to_string e))
         in
         (match result with
          | Ok (p, r) ->
            verdicts := !verdicts + p.verdicts;
            (match Hashtbl.find_opt st.answers (kind, p, r) with
             | Some (_, count) -> incr count
             | None -> Hashtbl.replace st.answers (kind, p, r) (st.n, ref 1))
          | Error e -> st.raised <- (st.n, kind, e) :: st.raised);
         if st.n_lat < lat_capacity then begin
           Float.Array.set st.lat st.n_lat lat;
           st.n_lat <- st.n_lat + 1
         end;
         st.n <- st.n + 1)
      (permutation rng wl.kinds);
    let wall = Stats.ms_between c0 (Stats.now_ns ()) /. 1e3 in
    elapsed := !elapsed +. wall;
    let slowdown =
      match (cal, mark) with
      | Some cal, Some mark -> Calib.slowdown_since cal mark
      | _ -> 1.
    in
    for i = first_lat to st.n_lat - 1 do
      Float.Array.set st.lat_ref i (Float.Array.get st.lat i /. slowdown)
    done;
    st.req_ms <- st.req_ms +. !cycle_ms;
    st.req_ref_ms <- st.req_ref_ms +. (!cycle_ms /. slowdown);
    st.verdicts <- st.verdicts + !verdicts;
    st.cycles <- (!verdicts, wall) :: st.cycles
  done;
  st

(* The known-answer checks, after the loop: the failure messages in
   request order, and how many requests failed. *)
let check_loop (wl : Common.t) st =
  let where i kind = Printf.sprintf "request #%d (%s)" i (wl.describe kind) in
  let raised =
    List.map (fun (i, kind, e) -> (i, 1, where i kind ^ ": raised " ^ e)) st.raised
  in
  let wrong =
    Hashtbl.fold
      (fun (kind, p, r) (i, count) acc ->
         let why =
           match (wl.check kind p, r) with
           | Some why, _ -> Some why
           | None, Some r ->
             Option.map (fun why -> "replay: " ^ why) (wl.check kind r)
           | None, None -> None
         in
         match why with
         | None -> acc
         | Some why ->
           ( i, !count,
             Printf.sprintf "%s%s: %s" (where i kind)
               (if !count > 1 then
                  Printf.sprintf " and %d more like it" (!count - 1)
                else "")
               why )
           :: acc)
      st.answers []
  in
  let all = List.sort compare (raised @ wrong) in
  (List.map (fun (_, _, m) -> m) all, List.fold_left (fun a (_, c, _) -> a + c) 0 all)

(* Verdicts per wall second of each cycle. *)
let cycle_rates st =
  List.map (fun (v, wall) -> float_of_int v /. wall) st.cycles

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the spans *)

let layer_metrics spans =
  let open Spans in
  let named name =
    let of_phase ph =
      List.filter (fun s -> s.name = name && s.phase = ph) spans
    in
    match of_phase Loop with [] -> of_phase Suite | l -> l
  in
  let call_ms name =
    match named name with
    | [] -> failwith ("no span recorded for " ^ name)
    | l -> per_call (List.map (fun s -> (s.req, s.kind, dur_ms s)) l)
  in
  let ms metric name = (metric, "ms", call_ms name) in
  let us metric name = (metric, "us", call_ms name *. 1e3) in
  (* gaps between consecutive runner calls inside one Service.worker,
     one list per worker: (request, kind, gap) in task order *)
  let gaps =
    let by_parent = Hashtbl.create 64 in
    List.iter
      (fun s ->
         Hashtbl.replace by_parent s.parent
           (s :: Option.value (Hashtbl.find_opt by_parent s.parent) ~default:[]))
      (named "campaign.task");
    Hashtbl.fold
      (fun _ ts acc ->
         let ts = Array.of_list (List.sort (fun a b -> compare a.t0 b.t0) ts) in
         let g =
           List.init (max 0 (Array.length ts - 1)) (fun i ->
               (ts.(i).req, ts.(i).kind, Stats.ms_between ts.(i).t1 ts.(i + 1).t0))
         in
         if g = [] then acc else g :: acc)
      by_parent []
  in
  let decile_sum first g =
    let n = List.length g in
    let k = max 1 (n / 10) in
    let g = if first then g else List.rev g in
    Stats.sum (List.filteri (fun i _ -> i < k) (List.map (fun (_, _, v) -> v) g))
  in
  let gap_growth =
    Stats.sum (List.map (decile_sum false) gaps)
    /. Stats.sum (List.map (decile_sum true) gaps)
  in
  (* Shares over the loop's requests: each layer's self time in the
     replays over the product calls' wall time.  The residual is the
     product calls' wall time minus the replayed calls' (the replay
     roots' children): bookkeeping inside the product call that no
     replayed call covers. *)
  let loop = List.filter (fun s -> s.phase = Loop && s.layer <> "probe") spans in
  let total name = Stats.sum (List.map dur_ms (List.filter (fun s -> s.name = name) loop)) in
  let product = total "product" and replay = total "replay" in
  let self = Hashtbl.create 8 in
  List.iter
    (fun (s, t) ->
       if s.parent >= 0 then
         Hashtbl.replace self s.layer
           (t +. Option.value (Hashtbl.find_opt self s.layer) ~default:0.))
    (self_times loop);
  let replayed = Hashtbl.fold (fun _ t acc -> acc +. t) self 0. in
  Hashtbl.replace self "residual" (product -. replayed);
  let share layer =
    ( layer ^ ".share", "frac",
      Option.value (Hashtbl.find_opt self layer) ~default:0. /. product )
  in
  let mean_sample name =
    match Hashtbl.find_opt Common.samples name with
    | Some l -> Stats.mean l
    | None -> failwith ("no sample recorded for " ^ name)
  in
  [ ms "lang.parse_ms" "lang.parse";
    ms "cfg.lower_ms" "cfg.lower";
    ms "instrument.instrument_ms" "instrument.instrument";
    ms "vm.flat_compile_ms" "vm.flat_compile";
    ms "engine.master_ms" "engine.master";
    ms "engine.slave_ms" "engine.slave";
    ms "engine.prefix_ms" "engine.prefix";
    ms "engine.resume_ms" "engine.resume";
    ms "engine.fingerprint_ms" "engine.fingerprint";
    ms "engine.finalize_ms" "engine.finalize";
    ms "snap.capture_ms" "snap.capture";
    ms "snap.restore_ms" "snap.restore";
    ("snap.wire_bytes", "bytes", mean_sample "snap.wire_bytes");
    ms "campaign.task_ms" "campaign.task";
    ("campaign.gap_ms", "ms", per_call (List.concat gaps));
    ("campaign.gap_growth", "ratio", gap_growth);
    us "campaign.encode_us" "campaign.encode";
    us "campaign.decode_us" "campaign.decode";
    ("campaign.outcome_bytes", "bytes", mean_sample "campaign.outcome_bytes");
    ms "campaign.init_ms" "campaign.init";
    ms "campaign.collect_ms" "campaign.collect";
    ms "campaign.render_ms" "campaign.render" ]
  @ List.map share
    [ "lang"; "cfg"; "instrument"; "engine"; "campaign"; "queue"; "residual" ]
  @ [ ("obs.trace_overhead", "ratio", product /. replay) ]

(* ------------------------------------------------------------------ *)
(* Main *)

let () =
  let name = !workload in
  let setup = List.assoc name workloads in
  (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
  let tmp = Filename.concat !out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  Sys.mkdir tmp 0o755;
  Fun.protect ~finally:(fun () -> rm_rf tmp) @@ fun () ->
  (* set-up: seeded inputs, one-time compilation, one warm-up request
     of each kind; timed in CPU time like the requests.  Before each
     warm-up request and at the end the calibration kernel catches up
     on the time since the last catch-up, which is the set-up's time;
     the set-up is then scaled by the slowdown of those kernel runs. *)
  let cal = if traced_run then None else Some (Calib.create ()) in
  let timed_setup () =
    Gc.compact ();
    let mark = Option.map Calib.mark cal in
    let ms = ref 0. and last = ref (Calib.cpu_ms ()) in
    let tick () =
      let now = Calib.cpu_ms () in
      ms := !ms +. (now -. !last);
      Option.iter (fun cal -> Calib.keep_up cal (now -. !last)) cal;
      last := Calib.cpu_ms ()
    in
    let wl = setup ~tick ~warm:true ~seed:!seed ~tmp in
    tick ();
    let s = !ms /. 1e3 in
    let slowdown =
      match (cal, mark) with
      | Some cal, Some mark -> Calib.slowdown_since cal mark
      | _ -> 1.
    in
    ((s, s /. slowdown), wl)
  in
  let rec set_up k times =
    let t, wl = timed_setup () in
    if k <= 1 then (t :: times, wl) else set_up (k - 1) (t :: times)
  in
  let before, wl = set_up (if traced_run then 1 else setups_before) [] in
  Gc.compact ();
  let sp = Spans.create () in
  let origin = Stats.now_ns () in
  let st = run_loop ?cal wl sp in
  let rss = peak_rss_mb () in
  let setup_times =
    if traced_run then before
    else
      List.rev before
      @ List.init setups_after (fun _ -> fst (timed_setup ()))
  in
  let failures, failed = check_loop wl st in
  let attempted = st.n in
  List.iter (fun f -> prerr_endline ("FAILED " ^ f)) failures;
  let lat = List.init st.n_lat (Float.Array.get st.lat) in
  let lat_ref = List.init st.n_lat (Float.Array.get st.lat_ref) in
  let rates = cycle_rates st in
  let stamp ?(extra = []) () =
    let fields =
      [ ("workload", Printf.sprintf "%S" name);
        ("seed", string_of_int !seed);
        ("seconds", string_of_int !seconds);
        ("trace", string_of_int !trace);
        ("nproc", if !nproc > 0 then string_of_int !nproc else "null");
        ("recommended_domain_count",
         string_of_int (Domain.recommended_domain_count ()));
        ("jobs", "1"); ("workers", "1"); ("heartbeat", "\"off\"");
        ("clients", "1"); ("loop", "\"closed\"");
        ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
        ("commit", if !commit = "" then "null" else Printf.sprintf "%S" !commit);
        ("requests", string_of_int attempted);
        ("latency_samples", string_of_int (List.length lat));
        ("p90_valid", string_of_bool (List.length lat >= 100));
        ("kinds", string_of_int wl.kinds);
        ("jobs_gt_1_speedup", "null");
        ("jobs_gt_1_reason",
         "\"not measured: five identical loops of SPEC campaigns at jobs = 2 \
          ranged 345-557 tasks/s against 334-346 at jobs = 1 on a 2-core \
          shared host\"");
        ("fleet_speedup", "null");
        ("fleet_reason",
         "\"not measured: the multi-process ldx_campaignd fleet is subject to \
          the same host noise\"") ]
      @ extra
    in
    Printf.printf "{\"perfbench_config\": {%s}}\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))
  in
  let result ~correct metrics =
    let finite =
      List.for_all
        (fun (n, _, v) ->
           Float.is_finite v
           || (prerr_endline ("metric " ^ n ^ " is not a finite number"); false))
        metrics
    in
    let metrics =
      List.map
        (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.))
        metrics
    in
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      (correct && finite) attempted failed (json_metrics metrics)
  in
  Printf.eprintf "%s seed %d: %d requests in %d cycles, %d failed\n%!" name
    !seed attempted (List.length st.cycles) failed;
  if not traced_run then begin
    (* At the reference speed: the median set-up, the verdicts over the
       requests' summed time, and per-request percentiles over every
       request of the run (nearest rank). *)
    let cal = Option.get cal in
    let slowdown = Calib.slowdown cal in
    let rate ms = float_of_int st.verdicts /. (ms /. 1e3) in
    let setup_raw = Stats.median (List.map fst setup_times) in
    let rate_raw = rate st.req_ms in
    let p50_raw = Stats.percentile 50. lat and p90_raw = Stats.percentile 90. lat in
    let metrics =
      [ ("setup_s", "s", Stats.median (List.map snd setup_times));
        ("verdicts_per_s", "1/s", rate st.req_ref_ms);
        ("latency_p50_ms", "ms", Stats.percentile 50. lat_ref);
        ("latency_p90_ms", "ms", Stats.percentile 90. lat_ref);
        ("peak_rss_mb", "MB", rss);
        ("ok_frac", "frac",
         1. -. (float_of_int failed /. float_of_int (max 1 attempted))) ]
    in
    Printf.eprintf
      "%d latency samples; cycle verdicts/wall s min %.1f, max %.1f; loop \
       verdicts/wall s %.1f\n"
      (List.length lat)
      (List.fold_left Float.min infinity rates)
      (List.fold_left Float.max 0. rates)
      (float_of_int st.verdicts /. Stats.sum (List.map snd st.cycles));
    Printf.eprintf
      "host slowdown %.4f over %d kernel runs; unscaled CPU-time figures: \
       setup %.4f s, %.1f verdicts/s, p50 %.3f ms, p90 %.3f ms\n"
      slowdown cal.Calib.runs setup_raw rate_raw p50_raw p90_raw;
    Printf.eprintf "setup runs (CPU s, as measured / at reference speed): %s\n%!"
      (String.concat " "
         (List.map (fun (s, r) -> Printf.sprintf "%.4f/%.4f" s r) setup_times));
    stamp
      ~extra:
        [ ("host_slowdown", json_num slowdown);
          ("kernel_runs", string_of_int cal.Calib.runs);
          ("unscaled",
           Printf.sprintf
             "{\"setup_s\": %s, \"verdicts_per_s\": %s, \"latency_p50_ms\": \
              %s, \"latency_p90_ms\": %s}"
             (json_num setup_raw) (json_num rate_raw) (json_num p50_raw)
             (json_num p90_raw)) ]
      ();
    result ~correct:(failed = 0) metrics
  end
  else begin
    (* traced-run extras: exact counts over one cycle, then the layer
       suite — Fig. 6 in host time, one traced campaign of each kind
       (for the layers this workload's loop does not reach), and the
       lease queue curve *)
    let counts = wl.counts () in
    let suite_req (other : Common.t) =
      Spans.begin_request sp ~phase:Spans.Suite ~kind:(other.describe 0);
      let r, probes =
        Spans.span sp "replay" "replay" (fun () -> other.traced sp 0)
      in
      probes ();
      match other.check 0 r with
      | None -> []
      | Some why -> [ "suite request: " ^ why ]
    in
    let suite_failures =
      suite_req (Incremental.setup ~tick:ignore ~warm:false ~seed:!seed ~tmp)
      @ suite_req (Service.setup ~tick:ignore ~warm:false ~seed:!seed ~tmp)
    in
    let fig6 = Layers.fig6 sp ~reps:3 in
    Layers.print_fig6 fig6;
    let curve = Layers.queue_curve ~tmp in
    let spans = Spans.all sp in
    let span_errors = Spans.check spans in
    List.iter (fun e -> prerr_endline ("SPAN CHECK " ^ e)) span_errors;
    List.iter (fun e -> prerr_endline ("FAILED " ^ e)) suite_failures;
    let metrics =
      layer_metrics spans @ Layers.fig6_metrics fig6 @ curve @ counts
    in
    let engaged =
      match name with
      | "incremental" ->
        let count n =
          List.fold_left (fun acc (m, _, v) -> if m = n then v else acc) 0. counts
        in
        string_of_bool (count "snap.captured" > 0. && count "snap.restored" > 0.)
      | _ -> "null"
    in
    let path =
      Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" name !seed)
    in
    let oc = open_out path in
    output_string oc (Spans.to_json_lines ~origin spans);
    close_out oc;
    Printf.eprintf "%d spans written to %s; peak RSS %.1f MB\n%!"
      (List.length spans) path (peak_rss_mb ());
    let sim_stable = List.for_all (fun r -> r.Layers.sim_stable) fig6 in
    stamp
      ~extra:
        [ ("incremental_engaged", engaged);
          ("fig6_sim_repeats", string_of_bool sim_stable);
          ("spans", Printf.sprintf "%S" path) ]
      ();
    result
      ~correct:
        (failed = 0 && span_errors = [] && suite_failures = [] && sim_stable)
      metrics
  end
