(* Decouple-point snapshots.

   The machine half ([Machine.snapshot]) is already canonical pure
   data; this module adds the canonical projection of the osim world
   (the Hashtbl-bearing [Os]/[Vfs]/[Net] state becomes sorted assoc
   lists), a format version, and the identity/wire operations.

   Canonicality is the load-bearing property: because a snapshot
   contains no Hashtbls, no closures and no nondeterministically
   ordered collections, two captures of identical execution states are
   structurally equal AND produce identical [Marshal] images — so
   [equal] can compare bytes (robust to cyclic arrays, which would
   send a naive structural compare into a loop), [fingerprint] can
   digest them, and the wire form round-trips bit-exactly. *)

module Machine = Ldx_vm.Machine
module Ir = Ldx_cfg.Ir
module Flat = Ldx_cfg.Flat
module Os = Ldx_osim.Os
module Vfs = Ldx_osim.Vfs
module Net = Ldx_osim.Net
module Fault = Ldx_osim.Fault
module Store = Ldx_store.Store

type sfd =
  | S_fd_file of { sfd_path : string; sfd_pos : int }
  | S_fd_sock of string

type sentry =
  | S_file of { sdata : string; smtime : int }
  | S_dir

type sos = {
  so_pid : int;
  so_fds : (int * sfd) list;
  so_next_fd : int;
  so_clock : int;
  so_rng : int;
  so_stdout : string;
  so_next_addr : int;
  so_malloc_log : int list;
  so_retaddr_log : int list;
  so_exit_code : int option;
  so_vfs_clock : int;
  so_vfs : (string * sentry) list;
  so_net : (string * string list * string list) list;
  so_faults : Fault.state option;
}

type t = {
  sp_version : int;
  sp_machine : Machine.snapshot;
  sp_os : sos;
}

let version = 4

(* ------------------------------------------------------------------ *)
(* The osim world, canonically.                                        *)

let sos_of_os (os : Os.t) : sos =
  let fds =
    Hashtbl.fold
      (fun fd e acc ->
         ( fd,
           match e with
           | Os.Fd_file { path; pos } ->
             S_fd_file { sfd_path = path; sfd_pos = pos }
           | Os.Fd_sock name -> S_fd_sock name )
         :: acc)
      os.Os.fds []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  let vfs =
    Hashtbl.fold
      (fun path e acc ->
         ( path,
           match e with
           | Vfs.File { data; mtime } -> S_file { sdata = data; smtime = mtime }
           | Vfs.Dir -> S_dir )
         :: acc)
      os.Os.vfs.Vfs.entries []
    |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
  in
  let net =
    Hashtbl.fold
      (fun name (ep : Net.endpoint) acc ->
         (name, ep.Net.inbox, ep.Net.outbox) :: acc)
      os.Os.net.Net.endpoints []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare (a : string) b)
  in
  { so_pid = os.Os.pid;
    so_fds = fds;
    so_next_fd = os.Os.next_fd;
    so_clock = os.Os.clock;
    so_rng = os.Os.rng;
    so_stdout = Buffer.contents os.Os.stdout;
    so_next_addr = os.Os.next_addr;
    so_malloc_log = os.Os.malloc_log;
    so_retaddr_log = os.Os.retaddr_log;
    so_exit_code = os.Os.exit_code;
    so_vfs_clock = os.Os.vfs.Vfs.clock;
    so_vfs = vfs;
    so_net = net;
    (* [copy_state] severs the counters from the live execution; the
       plan inside is immutable and safely shared. *)
    so_faults = Option.map Fault.copy_state os.Os.faults }

let os_of_sos (s : sos) : Os.t =
  let entries = Hashtbl.create (max 16 (List.length s.so_vfs)) in
  List.iter
    (fun (path, e) ->
       Hashtbl.replace entries path
         (match e with
          | S_file { sdata; smtime } -> Vfs.File { data = sdata; mtime = smtime }
          | S_dir -> Vfs.Dir))
    s.so_vfs;
  let endpoints = Hashtbl.create (max 8 (List.length s.so_net)) in
  List.iter
    (fun (name, inbox, outbox) ->
       Hashtbl.replace endpoints name { Net.name; inbox; outbox })
    s.so_net;
  let fds = Hashtbl.create (max 8 (List.length s.so_fds)) in
  List.iter
    (fun (fd, e) ->
       Hashtbl.replace fds fd
         (match e with
          | S_fd_file { sfd_path; sfd_pos } ->
            Os.Fd_file { path = sfd_path; pos = sfd_pos }
          | S_fd_sock name -> Os.Fd_sock name))
    s.so_fds;
  let stdout = Buffer.create (max 64 (String.length s.so_stdout)) in
  Buffer.add_string stdout s.so_stdout;
  { Os.vfs = { Vfs.entries; clock = s.so_vfs_clock };
    net = { Net.endpoints };
    pid = s.so_pid;
    fds;
    next_fd = s.so_next_fd;
    clock = s.so_clock;
    rng = s.so_rng;
    stdout;
    next_addr = s.so_next_addr;
    malloc_log = s.so_malloc_log;
    retaddr_log = s.so_retaddr_log;
    exit_code = s.so_exit_code;
    faults = Option.map Fault.copy_state s.so_faults;
    on_exec = None;
    on_fault = None }

(* ------------------------------------------------------------------ *)
(* Capture / restore.                                                  *)

let capture (m : Machine.t) : t =
  { sp_version = version;
    sp_machine = Machine.snapshot m;
    sp_os = sos_of_os m.Machine.os }

let restore ~fprog (prog : Ir.program) (snap : t) : Machine.t =
  Machine.restore ~prog ~fprog (os_of_sos snap.sp_os) snap.sp_machine

(* ------------------------------------------------------------------ *)
(* Identity.                                                           *)

(* The canonical byte image.  Default Marshal flags keep sharing, which
   both terminates on cyclic arrays and preserves the capture's aliasing
   structure; capture is deterministic, so identical states yield
   identical images. *)
let payload (t : t) : string = Marshal.to_string t []

let equal (a : t) (b : t) : bool = String.equal (payload a) (payload b)

let header = "ldx-snap/4"

let fingerprint (t : t) : string = Store.fingerprint [ header; payload t ]

(* ------------------------------------------------------------------ *)
(* Wire form: one line, ["ldx-snap/4 <digest> <hex payload>"].         *)

let to_string (t : t) : string =
  let body = payload t in
  Printf.sprintf "%s %s %s" header (Store.fingerprint [ header; body ])
    (Store.hex_encode body)

let of_string (s : string) : (t, string) result =
  match String.split_on_char ' ' (String.trim s) with
  | [ h; digest; hx ] when String.equal h header -> (
      match Store.hex_decode hx with
      | Error e -> Error ("ldx-snap: " ^ e)
      | Ok body ->
        if not (String.equal digest (Store.fingerprint [ header; body ])) then
          Error "ldx-snap: digest mismatch (torn or corrupt payload)"
        else (
          (* The digest guards the unmarshal: only bytes we produced
             (and that survived transport intact) reach it. *)
          match (Marshal.from_string body 0 : t) with
          | t ->
            if t.sp_version <> version then
              Error
                (Printf.sprintf "ldx-snap: unsupported version %d" t.sp_version)
            else Ok t
          | exception _ -> Error "ldx-snap: corrupt payload"))
  | _ -> Error "ldx-snap: bad header"
