(* Scripted network endpoints.

   An endpoint is a named bidirectional channel: the world script supplies
   the inbound message sequence; outbound messages are recorded in an
   outbox.  Outboxes at send-sinks are what LDX compares across master and
   slave. *)

type endpoint = {
  name : string;
  mutable inbox : string list;       (* remaining scripted inbound messages *)
  mutable outbox : string list;      (* reversed: most recent first *)
}

type t = { endpoints : (string, endpoint) Hashtbl.t }

let create () = { endpoints = Hashtbl.create 8 }

let add_endpoint t name script =
  Hashtbl.replace t.endpoints name { name; inbox = script; outbox = [] }

let find t name = Hashtbl.find_opt t.endpoints name

(* Connecting to an unknown endpoint creates an empty one (reads yield ""),
   mirroring a peer that sends nothing. *)
let connect t name =
  match find t name with
  | Some e -> e
  | None ->
    let e = { name; inbox = []; outbox = [] } in
    Hashtbl.replace t.endpoints name e;
    e

let recv (e : endpoint) =
  match e.inbox with
  | [] -> ""                          (* connection closed / nothing left *)
  | m :: rest -> e.inbox <- rest; m

let send (e : endpoint) msg =
  e.outbox <- msg :: e.outbox;
  String.length msg

let outbox (e : endpoint) = List.rev e.outbox
