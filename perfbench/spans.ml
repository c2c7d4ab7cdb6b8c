(* In-memory host-time spans.  A span is one call into a layer's public
   function: name, layer, request id, parent span and monotonic start
   and end stamps.  Only the traced run records spans. *)

type phase = Loop | Suite

type span = {
  id : int;
  name : string;
  layer : string;
  req : int;
  kind : string;  (** the request kind; repetitions of a kind share it *)
  parent : int;  (** -1 for a root *)
  phase : phase;
  t0 : int64;
  t1 : int64;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;   (** open spans, innermost first *)
  mutable cur_req : int;
  mutable cur_kind : string;
  mutable cur_phase : phase;
}

let create () =
  { spans = []; next_id = 0; stack = []; cur_req = -1; cur_kind = "";
    cur_phase = Loop }

(* [span t name layer f] runs [f] inside a span nested under the
   innermost open span (a root when none is open). *)
let span t name layer f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = Stats.now_ns () in
  let close () =
    let t1 = Stats.now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; name; layer; req = t.cur_req; kind = t.cur_kind; parent;
        phase = t.cur_phase; t0; t1 }
      :: t.spans
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

(* Start a new request: spans opened from now on carry its id and
   kind. *)
let begin_request t ~phase ~kind =
  t.cur_req <- t.cur_req + 1;
  t.cur_kind <- kind;
  t.cur_phase <- phase

let all t = List.rev t.spans

let dur_ms s = Stats.ms_between s.t0 s.t1

(* Self time: the span's duration minus the part its children cover.
   Children of one parent run one after another, so their durations
   add up. *)
let self_times spans =
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child_ms s.parent
           (dur_ms s
            +. Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
       (s, dur_ms s -. Option.value (Hashtbl.find_opt child_ms s.id) ~default:0.))
    spans

(* The invariants the self-test relies on: every parent exists within
   the same request, children lie inside their parent's interval and
   do not overlap, and every request of the loop has exactly two root
   spans besides its probes, "product" and "replay", so that its
   residual is measured against an independent timing of the product
   call.  Returns the violations. *)
let check spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let last_child_end = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.t1 < s.t0 then err "span %d (%s) ends before it starts" s.id s.name;
       if s.parent >= 0 then
         match Hashtbl.find_opt by_id s.parent with
         | None -> err "span %d (%s): parent %d missing" s.id s.name s.parent
         | Some p ->
           if p.req <> s.req then
             err "span %d (%s): parent %d is in request %d, not %d" s.id
               s.name p.id p.req s.req;
           if s.t0 < p.t0 || s.t1 > p.t1 then
             err "span %d (%s) is not inside its parent %d (%s)" s.id s.name
               p.id p.name;
           (match Hashtbl.find_opt last_child_end s.parent with
            | Some e when s.t0 < e ->
              err "span %d (%s) overlaps an earlier sibling" s.id s.name
            | _ -> ());
           Hashtbl.replace last_child_end s.parent s.t1)
    (List.sort (fun a b -> compare (a.parent, a.t0) (b.parent, b.t0)) spans);
  let roots = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.parent < 0 && s.phase = Loop && s.layer <> "probe" then
         Hashtbl.replace roots s.req
           (s.name :: Option.value (Hashtbl.find_opt roots s.req) ~default:[]))
    spans;
  Hashtbl.iter
    (fun req names ->
       if List.sort compare names <> [ "product"; "replay" ] then
         err "request %d: root spans [%s], expected one product and one replay"
           req (String.concat "; " names))
    roots;
  List.rev !errs

let phase_to_string = function Loop -> "loop" | Suite -> "suite"

(* One JSON object per span, times relative to [origin]. *)
let to_json_lines ~origin spans =
  let buf = Buffer.create (64 * (List.length spans + 1)) in
  List.iter
    (fun s ->
       Printf.bprintf buf
         "{\"id\":%d,\"name\":%S,\"layer\":%S,\"request\":%d,\"kind\":%S,\"parent\":%s,\"phase\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
         s.id s.name s.layer s.req s.kind
         (if s.parent < 0 then "null" else string_of_int s.parent)
         (phase_to_string s.phase)
         (Int64.sub s.t0 origin) (Int64.sub s.t1 origin))
    spans;
  Buffer.contents buf

(* The typical per-call value of samples [(request, kind, value)]:
   per request the summed value and the number of calls, per kind the
   median of the request sums, then summed over kinds and divided by
   the calls of one request of each kind.  The median does not depend
   on how many repetitions of a kind a run completes. *)
let per_call samples =
  let per_req = Hashtbl.create 256 in
  List.iter
    (fun (req, kind, v) ->
       let _, sum, n =
         Option.value (Hashtbl.find_opt per_req req) ~default:(kind, 0., 0)
       in
       Hashtbl.replace per_req req (kind, sum +. v, n + 1))
    samples;
  let per_kind = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (kind, sum, n) ->
       let sums, _ =
         Option.value (Hashtbl.find_opt per_kind kind) ~default:([], n)
       in
       Hashtbl.replace per_kind kind (sum :: sums, n))
    per_req;
  let sum, n =
    Hashtbl.fold
      (fun _ (sums, k) (a, b) -> (a +. Stats.median sums, b + k))
      per_kind (0., 0)
  in
  sum /. float_of_int n

(* Duration of the most recent span called [name]. *)
let last_ms t name =
  match List.find_opt (fun s -> s.name = name) t.spans with
  | Some s -> dur_ms s
  | None -> invalid_arg ("Spans.last_ms: no span " ^ name)
