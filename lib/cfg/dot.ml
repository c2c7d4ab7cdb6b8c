(* Graphviz export of function CFGs, with loop nesting — handy for
   debugging instrumentation and for papers/teaching.  `dune exec
   bin/ldx_run.exe` consumers can pipe the output to `dot -Tsvg`. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\l"
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One function as a digraph body (no wrapper), with blocks as record
   nodes. *)
let func_body (f : Ir.func) (buf : Buffer.t) : unit =
  let ld = Loops.detect f in
  let node_name b = Printf.sprintf "%s_b%d" f.Ir.fname b in
  Array.iter
    (fun (b : Ir.block) ->
       let instrs =
         Array.to_list (Array.map Ir.instr_to_string b.Ir.instrs)
       in
       let header =
         Printf.sprintf "b%d%s" b.Ir.bid
           (if Hashtbl.mem ld.Loops.loop_of_header b.Ir.bid then " (loop head)"
            else "")
       in
       let body =
         String.concat "\n" (header :: instrs @ [ Ir.term_to_string b.Ir.term ])
       in
       Buffer.add_string buf
         (Printf.sprintf "  %s [shape=box, label=\"%s\\l\"];\n"
            (node_name b.Ir.bid) (escape body)))
    f.Ir.blocks;
  Array.iter
    (fun (b : Ir.block) ->
       List.iter
         (fun s ->
            let is_back =
              match Hashtbl.find_opt ld.Loops.loop_of_header s with
              | Some l -> List.mem b.Ir.bid l.Loops.back_tails
              | None -> false
            in
            Buffer.add_string buf
              (Printf.sprintf "  %s -> %s%s;\n" (node_name b.Ir.bid)
                 (node_name s)
                 (if is_back then " [style=dashed, color=blue, label=\"back\"]"
                  else "")))
         (Ir.successors b.Ir.term))
    f.Ir.blocks

(* A whole function as a standalone digraph. *)
let func_to_dot (f : Ir.func) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" f.Ir.fname);
  Buffer.add_string buf "  graph [fontname=monospace];\n";
  Buffer.add_string buf "  node [fontname=monospace, fontsize=9];\n";
  func_body f buf;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* The whole program, one cluster per function. *)
let program_to_dot (p : Ir.program) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph program {\n";
  Buffer.add_string buf "  graph [fontname=monospace, compound=true];\n";
  Buffer.add_string buf "  node [fontname=monospace, fontsize=9];\n";
  Array.iter
    (fun (f : Ir.func) ->
       Buffer.add_string buf
         (Printf.sprintf "  subgraph \"cluster_%s\" {\n    label=\"%s\";\n"
            f.Ir.fname f.Ir.fname);
       func_body f buf;
       Buffer.add_string buf "  }\n")
    p.funcs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
