(* Minimal JSON construction (no external dependency). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    if Float.is_nan f || Float.abs f = Float.infinity then
      Buffer.add_string b "null"
    else Buffer.add_string b (Printf.sprintf "%.6g" f)
  | Str s -> add_escaped b s
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char b ',';
         to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         add_escaped b k;
         Buffer.add_char b ':';
         to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; RFC 8259 subset matching what
   [to_string] emits, plus exponents and unicode escapes). *)

exception Parse_error of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m ->
        raise (Parse_error (Printf.sprintf "%s at offset %d" m !pos))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n
          && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do advance () done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected '%c', found '%c'" c c'
    | None -> fail "expected '%c', found end of input" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else begin
             (match s.[!pos] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "invalid \\u escape"
                in
                (* decode as UTF-8 (surrogates left as-is bytes) *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end;
                pos := !pos + 4
              | c -> fail "invalid escape '\\%c'" c);
             advance ();
             go ()
           end)
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        advance ()
      done
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "invalid number";
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        Arr (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character '%c'" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors for parsed trees. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
