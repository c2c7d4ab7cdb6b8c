(* ldx_prof: render and diff LDX profiles.

     ldx_prof render prof.json [--folded]
     ldx_prof diff base.json cur.json

   Profiles come from `ldx_run --profile-json`. *)

open Cmdliner
module Report = Ldx_prof.Report
module J = Ldx_obs.Json

let read_profile path =
  Result.bind
    (J.parse (In_channel.with_open_text path In_channel.input_all))
    Report.of_json
  |> Result.map_error (Printf.sprintf "%s: %s" path)

let render_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PROFILE.json")
  in
  let folded =
    Arg.(value & flag
         & info [ "folded" ]
           ~doc:"Emit folded stacks (flamegraph.pl input) instead of the \
                 ranked tables.")
  in
  let blocks =
    Arg.(value & opt int 20
         & info [ "blocks" ] ~docv:"N"
           ~doc:"Rows in the per-block table.")
  in
  let run file folded blocks =
    match read_profile file with
    | Error e -> `Error (false, e)
    | Ok d ->
      print_string
        (if folded then Report.folded d else Report.render ~blocks d);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:"Render a profile JSON (from ldx_run --profile-json) as ranked \
             text tables or folded stacks")
    Term.(ret (const run $ file $ folded $ blocks))

let diff_cmd =
  let base =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE.json")
  in
  let cur =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT.json")
  in
  let run base cur =
    match (read_profile base, read_profile cur) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok b, Ok c ->
      print_string (Report.diff b c);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Per-opcode / per-block cycle deltas between two profile JSONs")
    Term.(ret (const run $ base $ cur))

let () =
  let info = Cmd.info "ldx_prof" ~doc:"Render and diff LDX profiles" in
  exit (Cmd.eval (Cmd.group info [ render_cmd; diff_cmd ]))
