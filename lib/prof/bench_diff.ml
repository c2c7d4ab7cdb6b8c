module J = Ldx_obs.Json

type outcome = {
  bd_regressions : int;
  bd_checks : int;
  bd_report : string;
}

let ( let* ) r f = Result.bind r f

let obj_field name j =
  match J.member name j with
  | Some (J.Obj fields) -> Ok fields
  | Some _ -> Error (Printf.sprintf "bench json: %S is not an object" name)
  | None -> Error (Printf.sprintf "bench json: missing %S" name)

let check_schema j =
  match J.member "schema" j with
  | Some (J.Str "ldx-bench/1") -> Ok ()
  | Some (J.Str s) ->
    Error (Printf.sprintf "bench json: schema %S, expected \"ldx-bench/1\"" s)
  | _ -> Error "bench json: missing schema"

let scalar_to_string = function
  | J.Bool b -> string_of_bool b
  | J.Int n -> string_of_int n
  | J.Float f -> Printf.sprintf "%.6g" f
  | J.Null -> "null"
  | v -> J.to_string v

(* Deterministic counters: exact equality, every key of every baseline
   workload must be present and identical in the current run. *)
let compare_counters ~buf ~checks ~regressions base cur =
  List.iter
    (fun (wname, bcounters) ->
       match List.assoc_opt wname cur with
       | None ->
         incr checks;
         incr regressions;
         Buffer.add_string buf
           (Printf.sprintf "REGRESSION %-28s missing from current run\n"
              wname)
       | Some ccounters ->
         let bfields =
           match bcounters with J.Obj f -> f | _ -> []
         in
         List.iter
           (fun (key, bval) ->
              incr checks;
              let cval = J.member key ccounters in
              if cval <> Some bval then begin
                incr regressions;
                Buffer.add_string buf
                  (Printf.sprintf "REGRESSION %-28s %-18s %s -> %s\n" wname
                     key (scalar_to_string bval)
                     (match cval with
                      | Some v -> scalar_to_string v
                      | None -> "missing"))
              end)
           bfields)
    base

(* Host wall times: noisy, flagged only past the threshold ratio. *)
let compare_walls ~buf ~checks ~regressions ~threshold base cur =
  List.iter
    (fun (kernel, bval) ->
       match (J.to_float bval, Option.bind (List.assoc_opt kernel cur)
                                 J.to_float) with
       | Some b, Some c when b > 0. ->
         incr checks;
         let ratio = c /. b in
         if ratio > 1. +. threshold then begin
           incr regressions;
           Buffer.add_string buf
             (Printf.sprintf
                "REGRESSION %-28s wall %.0f -> %.0f ns (%.2fx > %.2fx)\n"
                kernel b c ratio (1. +. threshold))
         end
       | _ -> ())
    base

(* Deterministic fields of a bench entry: each must match the baseline
   exactly.  They derive from the virtual-cycle model or from counters,
   so this holds on any host, and it applies under [cycles_only] too. *)
let compare_exact ~buf ~checks ~regressions entry fields base cur =
  match (base, cur) with
  | None, _ -> ()  (* baseline predates the entry *)
  | Some _, None ->
    incr checks;
    incr regressions;
    Buffer.add_string buf
      (Printf.sprintf "REGRESSION %-28s missing from current run\n" entry)
  | Some bf, Some cf ->
    List.iter
      (fun key ->
         match List.assoc_opt key bf with
         | None -> ()
         | Some bval ->
           incr checks;
           let cval = List.assoc_opt key cf in
           if cval <> Some bval then begin
             incr regressions;
             Buffer.add_string buf
               (Printf.sprintf "REGRESSION %-28s %-18s %s -> %s\n" entry key
                  (scalar_to_string bval)
                  (match cval with
                   | Some v -> scalar_to_string v
                   | None -> "missing"))
           end)
      fields

(* Incremental-campaign entry: task count, decouple verdict, shared
   prefix cycles and table identity are exact.  The measured speedup
   must clear the floor the run itself carries; like wall times it is
   skipped under [cycles_only], where host timing is meaningless. *)
let incremental_det_fields =
  [ "tasks"; "decoupled"; "suffixes_replayed"; "prefix_cycles";
    "tables_identical" ]

let compare_incremental ~buf ~checks ~regressions ~cycles_only base cur =
  compare_exact ~buf ~checks ~regressions "incremental" incremental_det_fields
    base cur;
  match cur with
  | Some cf when base <> None && not cycles_only -> begin
      incr checks;
      let floor =
        Option.value
          (Option.bind (List.assoc_opt "speedup_floor" cf) J.to_float)
          ~default:1.5
      in
      match Option.bind (List.assoc_opt "speedup" cf) J.to_float with
      | Some s when s >= floor -> ()
      | Some s ->
        incr regressions;
        Buffer.add_string buf
          (Printf.sprintf
             "REGRESSION %-28s speedup %.2fx below the %.2fx floor\n"
             "incremental" s floor)
      | None ->
        incr regressions;
        Buffer.add_string buf
          "REGRESSION incremental                  speedup missing\n"
    end
  | _ -> ()

(* Durable entry: a resume of the journal cut to 10 of 20 outcomes
   replays exactly the 10 journaled outcomes and re-runs exactly the
   other 10. *)
let durable_det_fields = [ "resume_replayed"; "resume_rerun" ]

let compare ?(threshold = 0.3) ?(cycles_only = false) ~baseline ~current () =
  let* () = check_schema baseline in
  let* () = check_schema current in
  let* bcounters = obj_field "engine_counters" baseline in
  let* ccounters = obj_field "engine_counters" current in
  let buf = Buffer.create 512 in
  let checks = ref 0 and regressions = ref 0 in
  compare_counters ~buf ~checks ~regressions bcounters ccounters;
  let section name j =
    match J.member name j with Some (J.Obj f) -> Some f | _ -> None
  in
  compare_incremental ~buf ~checks ~regressions ~cycles_only
    (section "incremental" baseline)
    (section "incremental" current);
  compare_exact ~buf ~checks ~regressions "durable" durable_det_fields
    (section "durable" baseline)
    (section "durable" current);
  let* () =
    if cycles_only then Ok ()
    else
      let* bwalls = obj_field "wall_times" baseline in
      let* cwalls = obj_field "wall_times" current in
      compare_walls ~buf ~checks ~regressions ~threshold bwalls cwalls;
      Ok ()
  in
  Buffer.add_string buf
    (Printf.sprintf "bench-diff: %d check%s, %d regression%s%s\n" !checks
       (if !checks = 1 then "" else "s")
       !regressions
       (if !regressions = 1 then "" else "s")
       (if cycles_only then " (cycles only)" else ""));
  Ok
    { bd_regressions = !regressions;
      bd_checks = !checks;
      bd_report = Buffer.contents buf }

(* Build a current-run tree that must trip the gate: slow one kernel's
   wall time 10x and bump one workload's wall_cycles counter. *)
let doctor j =
  match j with
  | J.Obj top ->
    let doctored_wall = ref false and doctored_cycles = ref false in
    let doctor_walls walls =
      List.map
        (fun (k, v) ->
           match v with
           | J.Float f when (not !doctored_wall) && f > 0. ->
             doctored_wall := true;
             (k, J.Float (f *. 10.))
           | _ -> (k, v))
        walls
    in
    let doctor_counters counters =
      List.map
        (fun (wname, wval) ->
           match wval with
           | J.Obj fields when not !doctored_cycles ->
             ( wname,
               J.Obj
                 (List.map
                    (fun (key, v) ->
                       match (key, v) with
                       | "wall_cycles", J.Int n when not !doctored_cycles ->
                         doctored_cycles := true;
                         (key, J.Int (n + 1))
                       | _ -> (key, v))
                    fields) )
           | _ -> (wname, wval))
        counters
    in
    let top' =
      List.map
        (fun (k, v) ->
           match (k, v) with
           | "wall_times", J.Obj walls -> (k, J.Obj (doctor_walls walls))
           | "engine_counters", J.Obj counters ->
             (k, J.Obj (doctor_counters counters))
           | _ -> (k, v))
        top
    in
    if not !doctored_cycles then
      Error "bench json: no wall_cycles counter to doctor"
    else Ok (J.Obj top')
  | _ -> Error "bench json: not an object"
