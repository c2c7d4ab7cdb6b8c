(* A recorded thread schedule: the compact log of scheduling decisions
   of one execution.

   Each entry is (chosen spawn index, quantum in VM steps) — exactly the
   information the VM's pick point consumes, and nothing else.  The log
   is immutable once built; executions that replay it read through a
   [cursor], a mutable position that can be copied mid-run so a copied
   execution (a restored snapshot) continues the schedule exactly where
   the original was — the same discipline as
   [Ldx_osim.Fault]'s plan/state split. *)

type entry = {
  s_thread : int;               (* chosen thread, by spawn index *)
  s_quantum : int;              (* steps granted before the next pick *)
}

type t = entry array

let length (s : t) = Array.length s

let of_list = Array.of_list

let entry (s : t) i = s.(i)

(* ------------------------------------------------------------------ *)
(* Cursor: a consumer's read position.                                 *)

type cursor = {
  sched : t;
  mutable pos : int;
}

let start (s : t) : cursor = { sched = s; pos = 0 }

(* Mid-execution copy, fault-counter style: same immutable log, same
   position — the clone and the original advance independently from
   here. *)
let copy_cursor (c : cursor) : cursor = { sched = c.sched; pos = c.pos }

let pos (c : cursor) = c.pos
let exhausted (c : cursor) = c.pos >= Array.length c.sched

let next (c : cursor) : entry option =
  if c.pos >= Array.length c.sched then None
  else begin
    let e = c.sched.(c.pos) in
    c.pos <- c.pos + 1;
    Some e
  end

(* ------------------------------------------------------------------ *)
(* Serialization: a line-oriented text format for --sched-record /
   --sched-replay.  Header line, then one "THREAD QUANTUM" pair per
   decision.  Blank lines and '#' comments are ignored on input.       *)

let header = "ldx-sched/1"

let to_string (s : t) : string =
  let buf = Buffer.create (16 + (Array.length s * 8)) in
  Buffer.add_string buf ("# " ^ header ^ "\n");
  Array.iter
    (fun e ->
       Buffer.add_string buf (string_of_int e.s_thread);
       Buffer.add_char buf ' ';
       Buffer.add_string buf (string_of_int e.s_quantum);
       Buffer.add_char buf '\n')
    s;
  Buffer.contents buf

let of_string (text : string) : (t, string) result =
  let entries = ref [] in
  let err = ref None in
  List.iteri
    (fun lineno line ->
       if !err = None then begin
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | [ th; q ] ->
             (match (int_of_string_opt th, int_of_string_opt q) with
              | Some s_thread, Some s_quantum when s_quantum > 0 ->
                entries := { s_thread; s_quantum } :: !entries
              | _ ->
                err :=
                  Some (Printf.sprintf "line %d: malformed entry %S"
                          (lineno + 1) line))
           | _ ->
             err :=
               Some (Printf.sprintf "line %d: expected 'THREAD QUANTUM', got %S"
                       (lineno + 1) line)
       end)
    (String.split_on_char '\n' text);
  match !err with
  | Some e -> Error e
  | None -> Ok (Array.of_list (List.rev !entries))
