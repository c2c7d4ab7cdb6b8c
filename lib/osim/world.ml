(* The initial environment of an execution: files, directories, network
   scripts, clock origin and rng seed.  A world is a pure description; it
   is instantiated into live [Vfs.t]/[Net.t] state per process. *)

type t = {
  dirs : string list;
  files : (string * string) list;             (* path, contents *)
  net_scripts : (string * string list) list;  (* endpoint, inbound messages *)
  clock_origin : int;
  rng_seed : int;
}

let empty =
  { dirs = []; files = []; net_scripts = []; clock_origin = 1_000_000;
    rng_seed = 42 }

let with_file path contents w = { w with files = (path, contents) :: w.files }
let with_dir path w = { w with dirs = path :: w.dirs }
let with_endpoint name script w =
  { w with net_scripts = (name, script) :: w.net_scripts }
let with_seed seed w = { w with rng_seed = seed }

let instantiate_vfs (w : t) : Vfs.t =
  let vfs = Vfs.create () in
  (* create parent dirs implicitly, deepest-last *)
  let rec ensure_dir path =
    let path = Vfs.normalize path in
    if not (Vfs.exists vfs path) then begin
      ensure_dir (Vfs.parent path);
      match Vfs.mkdir vfs path with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "World: mkdir %s: %s" path e)
    end
  in
  List.iter ensure_dir (List.rev w.dirs);
  List.iter
    (fun (path, contents) ->
       ensure_dir (Vfs.parent (Vfs.normalize path));
       match Vfs.write_file vfs path contents with
       | Ok () -> ()
       | Error e -> failwith (Printf.sprintf "World: write %s: %s" path e))
    (List.rev w.files);
  vfs

let instantiate_net (w : t) : Net.t =
  let net = Net.create () in
  List.iter (fun (name, script) -> Net.add_endpoint net name script)
    (List.rev w.net_scripts);
  net
