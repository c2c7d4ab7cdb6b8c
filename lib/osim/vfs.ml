(* An in-memory virtual filesystem.

   Paths are flat strings with '/' separators; directories must be created
   explicitly except for the root.  The LDX engine builds the slave its
   own filesystem from the world, which decoupled (tainted-resource)
   execution relies on: a resource a misaligned operation touches is
   already private to the slave (Sec. 7, "light-weight resource
   tainting"). *)

type entry =
  | File of { mutable data : string; mutable mtime : int }
  | Dir

type t = {
  entries : (string, entry) Hashtbl.t;
  mutable clock : int;               (* advances on mutations; mtime source *)
}

let create () =
  let t = { entries = Hashtbl.create 32; clock = 0 } in
  Hashtbl.replace t.entries "/" Dir;
  t

let tick t = t.clock <- t.clock + 1; t.clock

let normalize path =
  if String.length path = 0 then "/"
  else if path.[0] = '/' then path
  else "/" ^ path

let parent path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub path 0 i

let exists t path = Hashtbl.mem t.entries (normalize path)

let is_dir t path =
  match Hashtbl.find_opt t.entries (normalize path) with
  | Some Dir -> true
  | Some (File _) | None -> false

let lookup t path = Hashtbl.find_opt t.entries (normalize path)

(* Create or truncate a file; parent directory must exist. *)
let create_file t path =
  let path = normalize path in
  if not (exists t (parent path)) then Error "no such directory"
  else if is_dir t path then Error "is a directory"
  else begin
    Hashtbl.replace t.entries path (File { data = ""; mtime = tick t });
    Ok ()
  end

let read_file t path =
  match lookup t path with
  | Some (File f) -> Ok f.data
  | Some Dir -> Error "is a directory"
  | None -> Error "no such file"

let write_file t path data =
  let path = normalize path in
  match lookup t path with
  | Some (File f) ->
    f.data <- data;
    f.mtime <- tick t;
    Ok ()
  | Some Dir -> Error "is a directory"
  | None ->
    if not (exists t (parent path)) then Error "no such directory"
    else begin
      Hashtbl.replace t.entries path (File { data; mtime = tick t });
      Ok ()
    end

let append_file t path data =
  match lookup t (normalize path) with
  | Some (File f) ->
    f.data <- f.data ^ data;
    f.mtime <- tick t;
    Ok ()
  | Some Dir -> Error "is a directory"
  | None -> write_file t path data

let size t path =
  match lookup t path with
  | Some (File f) -> Ok (String.length f.data)
  | Some Dir -> Error "is a directory"
  | None -> Error "no such file"

let mkdir t path =
  let path = normalize path in
  if exists t path then Error "already exists"
  else if not (exists t (parent path)) then Error "no such directory"
  else begin
    Hashtbl.replace t.entries path Dir;
    Ok ()
  end

let unlink t path =
  let path = normalize path in
  match lookup t path with
  | Some (File _) -> Hashtbl.remove t.entries path; Ok ()
  | Some Dir -> Error "is a directory"
  | None -> Error "no such file"

let rename t src dst =
  let src = normalize src and dst = normalize dst in
  match lookup t src with
  | Some (File f) ->
    if not (exists t (parent dst)) then Error "no such directory"
    else begin
      Hashtbl.remove t.entries src;
      Hashtbl.replace t.entries dst (File { data = f.data; mtime = tick t });
      Ok ()
    end
  | Some Dir -> Error "cannot rename directory"
  | None -> Error "no such file"

(* Immediate children of a directory, sorted (deterministic). *)
let readdir t path =
  let path = normalize path in
  if not (is_dir t path) then Error "no such directory"
  else begin
    let prefix = if String.equal path "/" then "/" else path ^ "/" in
    let plen = String.length prefix in
    let children =
      Hashtbl.fold
        (fun p _ acc ->
           if String.length p > plen
           && String.sub p 0 plen = prefix
           && not (String.contains_from p plen '/')
           then String.sub p plen (String.length p - plen) :: acc
           else acc)
        t.entries []
    in
    Ok (List.sort String.compare children)
  end
