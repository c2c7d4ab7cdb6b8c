(* Plain-text table rendering for the experiment reports. *)

type align = Left | Right

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  rows : string list list;
  notes : string list;
}

let make ~title ~headers ?(aligns = []) ?(notes = []) rows =
  let aligns =
    if aligns <> [] then aligns else List.map (fun _ -> Left) headers
  in
  { title; headers; aligns; rows; notes }

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render (t : t) : string =
  let cols = List.length t.headers in
  let widths = Array.make cols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
         if i < cols && String.length cell > widths.(i) then
           widths.(i) <- String.length cell)
      row
  in
  measure t.headers;
  List.iter measure t.rows;
  let fmt_row row =
    let cells =
      List.mapi
        (fun i cell ->
           let align = try List.nth t.aligns i with _ -> Left in
           pad align widths.(i) cell)
        row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    "|"
    ^ String.concat "|"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("## " ^ t.title ^ "\n\n");
  Buffer.add_string buf (fmt_row t.headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (fmt_row r ^ "\n")) t.rows;
  if t.notes <> [] then begin
    Buffer.add_char buf '\n';
    List.iter (fun n -> Buffer.add_string buf ("> " ^ n ^ "\n")) t.notes
  end;
  Buffer.contents buf

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)
let f2 x = Printf.sprintf "%.2f" x

(* Simple statistics used by Table 4 and the means of Fig. 6. *)
let mean xs =
  if xs = [] then 0.0
  else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  if xs = [] then 0.0
  else
    exp
      (List.fold_left (fun a x -> a +. log (Stdlib.max 1e-12 x)) 0.0 xs
       /. float_of_int (List.length xs))

let stddev xs =
  if List.length xs < 2 then 0.0
  else begin
    let m = mean xs in
    let var =
      List.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs
      /. float_of_int (List.length xs - 1)
    in
    sqrt var
  end

let min_max xs =
  match xs with
  | [] -> (0, 0)
  | x :: rest ->
    List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) rest
