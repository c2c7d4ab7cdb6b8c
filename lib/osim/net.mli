(** Scripted network endpoints.

    An endpoint is a named bidirectional channel: the {!World} script
    supplies the inbound message sequence; outbound messages accumulate
    in an outbox.  Outboxes at send-sinks are what LDX compares across
    master and slave. *)

type endpoint = {
  name : string;
  mutable inbox : string list;     (** remaining scripted inbound messages *)
  mutable outbox : string list;    (** reversed: most recent first *)
}

type t = { endpoints : (string, endpoint) Hashtbl.t }

val create : unit -> t
val add_endpoint : t -> string -> string list -> unit
val find : t -> string -> endpoint option

(** Connecting to an unknown endpoint creates an empty one (its reads
    yield [""], like a peer that sends nothing). *)
val connect : t -> string -> endpoint

(** Pop the next inbound message; [""] when the script is exhausted. *)
val recv : endpoint -> string

(** Record an outbound message; returns its length. *)
val send : endpoint -> string -> int

(** Outbound messages in send order. *)
val outbox : endpoint -> string list
