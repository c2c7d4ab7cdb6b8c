(* Deterministic environment fault injection.

   A fault plan is an immutable, seeded description of how the simulated
   OS misbehaves: rules keyed by syscall name / static site / nth dynamic
   occurrence, each carrying an action (error return, short read,
   transient failure, dropped network message, clock skew).  A plan is
   instantiated into a per-execution [state] holding the dynamic
   occurrence counters, so the SAME plan replayed over the same syscall
   stream fires the SAME faults — the property the LDX false-positive
   argument rests on: the master records faulted outcomes, a coupled
   slave copies them, and a decoupled slave re-executing privately
   replays the identical plan from its own fresh counters.

   Probabilistic rules are derandomised: the coin is a hash of
   (plan seed, rule index, occurrence count), never a live RNG, so a
   "30% of recvs fail" plan is bit-reproducible across executions,
   domains and processes. *)

type action =
  | Error_return of Sval.t      (* replace the result; syscall not executed *)
  | Short_read of int           (* cap read/recv payloads at k bytes *)
  | Transient                   (* EINTR-style: canonical error, not executed *)
  | Drop_message                (* recv: message lost; send: claimed, not delivered *)
  | Clock_skew of int           (* advance the OS clock, then execute honestly *)

type rule = {
  f_sys : string option;        (* syscall name; None matches any *)
  f_site : int option;          (* static site id; None matches any *)
  f_nth : int option;           (* only the nth dynamic match (1-based) *)
  f_prob : int option;          (* fire on ~p% of matches (seeded coin) *)
  f_action : action;
}

let rule ?sys ?site ?nth ?prob action =
  { f_sys = sys; f_site = site; f_nth = nth; f_prob = prob; f_action = action }

type t = {
  rules : rule list;
  seed : int;
}

let plan ?(seed = 0) rules = { rules; seed }
let is_empty p = p.rules = []

(* ------------------------------------------------------------------ *)
(* Per-execution state.                                                *)

type state = {
  splan : t;
  counts : int array;           (* per-rule dynamic match counts *)
  mutable injected : int;
}

let instantiate (p : t) : state =
  { splan = p; counts = Array.make (List.length p.rules) 0; injected = 0 }

(* Mid-execution copy: same plan, same occurrence counters — an OS
   rebuilt from a snapshot continues the fault schedule exactly where
   the original was. *)
let copy_state (st : state) : state =
  { splan = st.splan; counts = Array.copy st.counts; injected = st.injected }

let injected st = st.injected

(* Deterministic coin in [0, 100) from (seed, rule index, occurrence). *)
let coin ~seed ~idx ~count =
  let mix =
    (seed * 0x9E3779B1) lxor (idx * 0x85EBCA6B) lxor (count * 0xC2B2AE35)
  in
  (mix land 0x3FFFFFFF) mod 100

(* The action to inject for this dynamic syscall, advancing every
   matching rule's occurrence counter (no short-circuit: counters must
   see each match even when an earlier rule already fired).  The first
   firing rule, in plan order, wins.  [None] = service honestly. *)
let decide (st : state) ~(sys : string) ~(site : int) : action option =
  let fired = ref None in
  List.iteri
    (fun i r ->
       let matches =
         (match r.f_sys with None -> true | Some s -> String.equal s sys)
         && (match r.f_site with None -> true | Some s -> s = site)
       in
       if matches then begin
         let c = st.counts.(i) + 1 in
         st.counts.(i) <- c;
         let nth_ok = match r.f_nth with None -> true | Some n -> c = n in
         let prob_ok =
           match r.f_prob with
           | None -> true
           | Some p -> coin ~seed:st.splan.seed ~idx:i ~count:c < p
         in
         if nth_ok && prob_ok && !fired = None then fired := Some r.f_action
       end)
    st.splan.rules;
  (match !fired with Some _ -> st.injected <- st.injected + 1 | None -> ());
  !fired

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let action_to_string = function
  | Error_return (Sval.I n) -> Printf.sprintf "error=%d" n
  | Error_return (Sval.S s) -> Printf.sprintf "error=%S" s
  | Short_read k -> Printf.sprintf "short=%d" k
  | Transient -> "transient"
  | Drop_message -> "drop"
  | Clock_skew d -> Printf.sprintf "skew=%d" d

let rule_to_string (r : rule) =
  String.concat ""
    [ action_to_string r.f_action;
      ":";
      (match r.f_sys with Some s -> s | None -> "*");
      (match r.f_nth with Some n -> Printf.sprintf "@%d" n | None -> "");
      (match r.f_site with Some s -> Printf.sprintf "#%d" s | None -> "");
      (match r.f_prob with Some p -> Printf.sprintf "%%%d" p | None -> "") ]

let to_string (p : t) =
  Printf.sprintf "seed=%d %s" p.seed
    (String.concat "," (List.map rule_to_string p.rules))

(* ------------------------------------------------------------------ *)
(* Parsing: ACTION ':' SYS ['@'NTH] ['#'SITE] ['%'PROB], comma-separated.
   ACTION is error[=INT] | short=K | transient | drop | skew=D.
   SYS may be '*' (any syscall).  Example:
     short=2:read@1,drop:recv%50,skew=100:time                         *)

let parse_int ~what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what s)

let parse_action (s : string) : (action, string) result =
  let name, arg =
    match String.index_opt s '=' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  match (name, arg) with
  | "error", None -> Ok (Error_return (Sval.I (-1)))
  | "error", Some v ->
    Result.map (fun n -> Error_return (Sval.I n)) (parse_int ~what:"error" v)
  | "eof", None -> Ok (Error_return (Sval.S ""))
  | "short", Some v -> Result.map (fun k -> Short_read k) (parse_int ~what:"short" v)
  | "short", None -> Error "short: missing byte count (short=K)"
  | "transient", None -> Ok Transient
  | "drop", None -> Ok Drop_message
  | "skew", Some v -> Result.map (fun d -> Clock_skew d) (parse_int ~what:"skew" v)
  | "skew", None -> Error "skew: missing cycle delta (skew=D)"
  | _ -> Error (Printf.sprintf "unknown fault action %S" s)

let parse_rule (s : string) : (rule, string) result =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "fault rule %S: expected ACTION:SYSCALL" s)
  | Some i ->
    let act_s = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match parse_action act_s with
     | Error e -> Error e
     | Ok action ->
       (* split the target part on '@', '#', '%' suffixes, in any order *)
       let sys = Buffer.create 8 in
       let nth = ref None and site = ref None and prob = ref None in
       let err = ref None in
       let n = String.length rest in
       let rec go j =
         if j >= n || !err <> None then ()
         else
           match rest.[j] with
           | ('@' | '#' | '%') as c ->
             let stop =
               let rec find k =
                 if k >= n then k
                 else match rest.[k] with '@' | '#' | '%' -> k | _ -> find (k + 1)
               in
               find (j + 1)
             in
             let v = String.sub rest (j + 1) (stop - j - 1) in
             (match parse_int ~what:(String.make 1 c) v with
              | Error e -> err := Some e
              | Ok v ->
                (match c with
                 | '@' -> nth := Some v
                 | '#' -> site := Some v
                 | _ -> prob := Some v));
             go stop
           | c ->
             Buffer.add_char sys c;
             go (j + 1)
       in
       go 0;
       (match !err with
        | Some e -> Error (Printf.sprintf "fault rule %S: %s" s e)
        | None ->
          let sys =
            match Buffer.contents sys with "" | "*" -> None | s -> Some s
          in
          Ok { f_sys = sys; f_site = !site; f_nth = !nth; f_prob = !prob;
               f_action = action }))

let parse ?(seed = 0) (s : string) : (t, string) result =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  let rec go acc = function
    | [] -> Ok (plan ~seed (List.rev acc))
    | p :: rest ->
      (match parse_rule (String.trim p) with
       | Ok r -> go (r :: acc) rest
       | Error e -> Error e)
  in
  go [] parts

(* ------------------------------------------------------------------ *)
(* Chaos generator: a small random plan over the common syscall
   vocabulary, with type-plausible error values (string-returning
   syscalls get string errors) so injected results exercise the engine
   rather than just trapping the program on the first use. *)

let templates =
  [| rule ~sys:"recv" Drop_message;
     rule ~sys:"recv" (Short_read 1);
     rule ~sys:"recv" Transient;
     rule ~sys:"recv" (Error_return (Sval.S ""));
     rule ~sys:"read" (Short_read 2);
     rule ~sys:"read" Transient;
     rule ~sys:"open" (Error_return (Sval.I (-1)));
     rule ~sys:"send" Drop_message;
     rule ~sys:"send" (Error_return (Sval.I (-1)));
     rule ~sys:"write" (Error_return (Sval.I (-1)));
     rule ~sys:"time" (Clock_skew 997);
     rule ~sys:"rand" (Error_return (Sval.I 0));
     rule ~sys:"stat" (Error_return (Sval.I (-1))) |]

let random ~(rand : Random.State.t) () : t =
  let n_rules = 1 + Random.State.int rand 3 in
  let pick () =
    let base = templates.(Random.State.int rand (Array.length templates)) in
    let nth =
      match Random.State.int rand 3 with
      | 0 -> Some (1 + Random.State.int rand 3)
      | _ -> None
    in
    let prob =
      match Random.State.int rand 3 with
      | 0 -> Some (25 + (25 * Random.State.int rand 3))
      | _ -> None
    in
    { base with f_nth = nth; f_prob = prob }
  in
  plan ~seed:(Random.State.int rand 0x3FFFFFFF)
    (List.init n_rules (fun _ -> pick ()))
