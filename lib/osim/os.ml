(* Per-process view of the simulated OS: fd table + syscall dispatch.

   Each execution (master and slave) owns one [t].  The LDX engine decides
   which *result value* an execution observes (its own, or a copied one
   from the master when the syscall is aligned); this module only provides
   honest syscall semantics over the process's private VFS/network/clock
   state. *)

type fd_entry =
  | Fd_file of { path : string; mutable pos : int }
  | Fd_sock of string                          (* endpoint name *)

type t = {
  vfs : Vfs.t;
  net : Net.t;
  pid : int;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable clock : int;
  mutable rng : int;
  stdout : Buffer.t;
  mutable next_addr : int;                     (* bump allocator for malloc *)
  mutable malloc_log : int list;               (* requested sizes, reversed *)
  mutable retaddr_log : int list;              (* observed "return addrs" *)
  mutable exit_code : int option;
  mutable faults : Fault.state option;
  (* fault-injection state: the plan's per-execution occurrence
     counters.  None (the default) costs one pointer comparison at
     dispatch.  Snapshots copy it with the counters where they stood
     (Fault.copy_state). *)
  mutable on_exec : (t -> string -> Sval.t list -> Sval.t -> unit) option;
  (* observability hook: fires after every successfully serviced
     syscall with its result; None (the default) costs one pointer
     comparison.  Installed per-process by the engine — never copied. *)
  mutable on_fault : (t -> string -> int -> Fault.action -> unit) option;
  (* fires when a fault is injected: process, syscall, site, action.
     Like on_exec, installed by the engine and never copied. *)
}

let create ?(pid = 1000) (w : World.t) : t =
  { vfs = World.instantiate_vfs w;
    net = World.instantiate_net w;
    pid;
    fds = Hashtbl.create 8;
    next_fd = 3;
    clock = w.World.clock_origin;
    rng = (if w.World.rng_seed = 0 then 1 else w.World.rng_seed);
    stdout = Buffer.create 64;
    next_addr = 0x1000_0000;
    malloc_log = [];
    retaddr_log = [];
    exit_code = None;
    faults = None;
    on_exec = None;
    on_fault = None }

exception Os_error of string

let alloc_fd t e =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd e;
  fd

let bad_args sys args =
  raise (Os_error (Printf.sprintf "syscall %s: bad arguments (%s)" sys
                     (Sval.list_to_string args)))

let next_rand t =
  t.rng <- (t.rng * 1103515245 + 12345) land 0x3FFFFFFF;
  t.rng

let exec_raw (t : t) (sys : string) (args : Sval.t list) : Sval.t =
  match (sys, args) with
  | "open", [ S path ] ->
    (match Vfs.lookup t.vfs path with
     | Some (Vfs.File _) -> I (alloc_fd t (Fd_file { path; pos = 0 }))
     | Some Vfs.Dir | None -> I (-1))
  | "creat", [ S path ] ->
    (match Vfs.create_file t.vfs path with
     | Ok () -> I (alloc_fd t (Fd_file { path; pos = 0 }))
     | Error _ -> I (-1))
  | "read", [ I fd; I n ] ->
    (match Hashtbl.find_opt t.fds fd with
     | Some (Fd_file f) ->
       (match Vfs.read_file t.vfs f.path with
        | Ok data ->
          let avail = max 0 (String.length data - f.pos) in
          let k = min (max n 0) avail in
          let chunk = String.sub data f.pos k in
          f.pos <- f.pos + k;
          S chunk
        | Error _ -> S "")
     | Some (Fd_sock name) ->
       (match Net.find t.net name with
        | Some e -> S (Net.recv e)
        | None -> S "")
     | None -> S "")
  | "write", [ I fd; S data ] ->
    (match Hashtbl.find_opt t.fds fd with
     | Some (Fd_file f) ->
       (match Vfs.append_file t.vfs f.path data with
        | Ok () -> I (String.length data)
        | Error _ -> I (-1))
     | Some (Fd_sock name) -> I (Net.send (Net.connect t.net name) data)
     | None ->
       if fd = 1 || fd = 2 then begin
         Buffer.add_string t.stdout data;
         I (String.length data)
       end
       else I (-1))
  | "close", [ I fd ] ->
    Hashtbl.remove t.fds fd;
    I 0
  | "seek", [ I fd; I pos ] ->
    (match Hashtbl.find_opt t.fds fd with
     | Some (Fd_file f) -> f.pos <- max 0 pos; I pos
     | Some (Fd_sock _) | None -> I (-1))
  | "socket", [ S name ] ->
    ignore (Net.connect t.net name);
    I (alloc_fd t (Fd_sock name))
  | "recv", [ I fd ] ->
    (match Hashtbl.find_opt t.fds fd with
     | Some (Fd_sock name) ->
       (match Net.find t.net name with
        | Some e -> S (Net.recv e)
        | None -> S "")
     | Some (Fd_file _) | None -> S "")
  | "send", [ I fd; S data ] ->
    (match Hashtbl.find_opt t.fds fd with
     | Some (Fd_sock name) -> I (Net.send (Net.connect t.net name) data)
     | Some (Fd_file _) | None -> I (-1))
  | "mkdir", [ S path ] ->
    (match Vfs.mkdir t.vfs path with Ok () -> I 0 | Error _ -> I (-1))
  | "unlink", [ S path ] ->
    (match Vfs.unlink t.vfs path with Ok () -> I 0 | Error _ -> I (-1))
  | "rename", [ S a; S b ] ->
    (match Vfs.rename t.vfs a b with Ok () -> I 0 | Error _ -> I (-1))
  | "stat", [ S path ] ->
    (match Vfs.size t.vfs path with Ok n -> I n | Error _ -> I (-1))
  | "readdir", [ S path ] ->
    (match Vfs.readdir t.vfs path with
     | Ok names -> S (String.concat ";" names)
     | Error _ -> S "")
  | "time", [] ->
    t.clock <- t.clock + 7;
    I t.clock
  | "rand", [] -> I (next_rand t)
  | "getpid", [] -> I t.pid
  | "print", [ S data ] ->
    Buffer.add_string t.stdout data;
    I (String.length data)
  | "print", [ I n ] ->
    let data = string_of_int n in
    Buffer.add_string t.stdout data;
    I (String.length data)
  | "exit", [ I code ] ->
    t.exit_code <- Some code;
    I code
  | "malloc", [ I size ] ->
    t.malloc_log <- size :: t.malloc_log;
    let addr = t.next_addr in
    t.next_addr <- t.next_addr + max 16 size;
    I addr
  | "free", [ I _ ] -> I 0
  | "retaddr", [ I v ] ->
    t.retaddr_log <- v :: t.retaddr_log;
    I v
  | "retaddr", [ S s ] ->
    let v = Hashtbl.hash s in
    t.retaddr_log <- v :: t.retaddr_log;
    I v
  | _ -> bad_args sys args

(* Canonical error value for a transient failure: string-returning
   syscalls report "no data", the rest report -1. *)
let transient_result = function
  | "read" | "recv" | "readdir" -> Sval.S ""
  | _ -> Sval.I (-1)

(* Apply a fault decision.  Actions that make no sense for the syscall
   (Short_read on "time", Drop_message on "open", ...) fall back to
   honest execution — the plan still counted the occurrence, keeping
   schedules aligned across executions regardless of rule sanity. *)
let apply_fault (t : t) (sys : string) (args : Sval.t list)
    (a : Fault.action) : Sval.t =
  match (a, sys, args) with
  | Fault.Error_return v, _, _ -> v
  | Fault.Transient, _, _ -> transient_result sys
  | Fault.Clock_skew d, _, _ ->
    t.clock <- t.clock + d;
    exec_raw t sys args
  | Fault.Short_read k, "read", [ I fd; I n ] ->
    exec_raw t "read" [ I fd; I (min (max k 0) (max n 0)) ]
  | Fault.Short_read k, "recv", _ ->
    (* the full message is consumed; the tail is lost on the wire *)
    (match exec_raw t sys args with
     | S s -> S (String.sub s 0 (min (max k 0) (String.length s)))
     | r -> r)
  | Fault.Drop_message, "recv", _ ->
    (* consume the message so the stream position advances, lose the data *)
    ignore (exec_raw t sys args);
    S ""
  | Fault.Drop_message, "send", [ _; S data ] ->
    (* claimed successful, never delivered *)
    I (String.length data)
  | (Fault.Short_read _ | Fault.Drop_message), _, _ -> exec_raw t sys args

let exec ?(site = -1) (t : t) (sys : string) (args : Sval.t list) : Sval.t =
  let r =
    match t.faults with
    | None -> exec_raw t sys args
    | Some st ->
      (match Fault.decide st ~sys ~site with
       | None -> exec_raw t sys args
       | Some a ->
         (match t.on_fault with Some f -> f t sys site a | None -> ());
         apply_fault t sys args a)
  in
  (match t.on_exec with Some f -> f t sys args r | None -> ());
  r

let set_faults (t : t) (p : Fault.t option) : unit =
  t.faults <-
    (match p with
     | None -> None
     | Some p when Fault.is_empty p -> None
     | Some p -> Some (Fault.instantiate p))

let faults_injected (t : t) : int =
  match t.faults with None -> 0 | Some st -> Fault.injected st

let stdout_contents t = Buffer.contents t.stdout
let exited t = t.exit_code <> None

(* The resource a syscall touches, for taint tracking: "path:<p>" for
   files/directories, "ep:<name>" for network endpoints. *)
let resource_of_fd t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some (Fd_file { path; _ }) -> Some ("path:" ^ path)
  | Some (Fd_sock name) -> Some ("ep:" ^ name)
  | None -> None

let resource_of_syscall t (sys : string) (args : Sval.t list) : string list =
  let entry path = [ "path:" ^ Vfs.normalize path ] in
  (* namespace-changing operations also touch the parent directory: a
     directory created/removed in only one execution must taint the
     parent so later listings decouple (Sec. 7) *)
  let entry_and_parent path =
    let path = Vfs.normalize path in
    [ "path:" ^ path; "path:" ^ Vfs.parent path ]
  in
  match (sys, args) with
  | ("open" | "stat" | "readdir"), S path :: _ -> entry path
  | ("creat" | "unlink" | "mkdir"), S path :: _ -> entry_and_parent path
  | "rename", [ S a; S b ] -> entry_and_parent a @ entry_and_parent b
  | ("read" | "write" | "seek" | "close"), I fd :: _ ->
    (match resource_of_fd t fd with Some r -> [ r ] | None -> [])
  | ("recv" | "send"), I fd :: _ ->
    (match resource_of_fd t fd with Some r -> [ r ] | None -> [])
  | "socket", [ S name ] -> [ "ep:" ^ name ]
  | _ -> []
