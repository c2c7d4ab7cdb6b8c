(* What main.ml needs from a workload, and helpers shared by the
   three of them. *)

module Engine = Ldx_core.Engine
module Campaign = Ldx_core.Campaign
module Recorder = Ldx_obs.Recorder
module Event = Ldx_obs.Event
module Metrics = Ldx_obs.Metrics

(* A request's answer, checked against its known answer after the timed
   loop.  [answer] is the verdict label for one-shot requests and the
   digest of the rendered campaign table for campaigns (kept small so
   memory does not grow with the number of requests a run completes). *)
type response = { verdicts : int; answer : string; leaks : int }

type t = {
  kinds : int;  (** distinct requests; one cycle runs each once *)
  describe : int -> string;
  run : int -> response;  (** the product path, untraced *)
  traced : Spans.t -> int -> response * (unit -> unit);
      (** the same request replayed as the product path's public calls,
          one span per call; the returned thunk runs its probe spans,
          after the request *)
  check : int -> response -> string option;  (** [Some why] on a wrong answer *)
  counts : unit -> (string * string * float) list;
      (** exact counts over one cycle ({!count_cycle}) *)
}

let campaign_response ?table outs =
  let leaks =
    List.length
      (List.filter
         (fun o ->
            match Campaign.result_of o.Campaign.status with
            | Some r -> r.Engine.leak
            | None -> false)
         outs)
  in
  let answer =
    Digest.to_hex
      (Digest.string
         (match table with Some t -> t | None -> Campaign.render outs))
  in
  { verdicts = List.length outs; answer; leaks }

(* Campaign checks: the table must equal the reference table
   byte for byte, and every task must leak (by construction). *)
let check_campaign ~reference r =
  if r.answer <> Digest.to_hex (Digest.string (Lazy.force reference)) then
    Some "table differs from the reference table"
  else if r.leaks <> r.verdicts then
    Some (Printf.sprintf "%d of %d tasks leaked, all must" r.leaks r.verdicts)
  else None

(* [k] distinct draws from [lo .. hi]. *)
let distinct rng k ~lo ~hi =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      let v = lo + Random.State.int rng (hi - lo + 1) in
      if List.mem v acc then go acc n else go (v :: acc) (n - 1)
  in
  go [] k

(* Fisher-Yates over [0 .. n-1]. *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Exact counts over one cycle: each request runs once with its own
   Recorder sink (so events never pile up across requests), folded
   into one metrics table.  [f table sink x] runs request [x]. *)
let count_cycle items f =
  let m = Metrics.create () in
  Array.iter
    (fun x ->
       let rec_ = Recorder.create () in
       f m (Recorder.sink rec_) x;
       let c = Metrics.counter (Recorder.snapshot rec_) in
       let prefix = ref 0 and suffix = ref 0 and resumed = ref 0 in
       List.iter
         (function
           | Event.Run_summary { steps; _ } -> Metrics.add m "vm.steps" steps
           | Event.Snapshot_captured { prefix_cycles; _ } -> prefix := prefix_cycles
           | Event.Snapshot_restored { suffix_cycles; _ } ->
             incr resumed;
             suffix := !suffix + suffix_cycles
           | _ -> ())
         (Recorder.events rec_);
       List.iter
         (fun (name, keys) ->
            Metrics.add m name (List.fold_left (fun a k -> a + c k) 0 keys))
         [ ("engine.syscalls", [ "syscalls.master"; "syscalls.slave" ]);
           ("engine.copies", [ "engine.copies" ]);
           ("engine.divergences",
            [ "divergence.case1"; "divergence.case2"; "divergence.case3";
              "divergence.final-state" ]);
           ("snap.captured", [ "snap.captured" ]);
           ("snap.restored", [ "snap.restored" ]) ];
       (* every resumed task shares the prefix's cycles *)
       Metrics.add m "prefix_work" (!prefix * !resumed);
       Metrics.add m "slave_work" ((!prefix * !resumed) + !suffix))
    items;
  let c n = float_of_int (Metrics.counter (Metrics.snapshot m) n) in
  List.map
    (fun n -> (n, "count", c n))
    [ "vm.steps"; "engine.syscalls"; "engine.copies"; "engine.divergences";
      "snap.captured"; "snap.restored" ]
  @ [ ("snap.prefix_share", "frac",
       if c "slave_work" = 0. then 0. else c "prefix_work" /. c "slave_work");
      ("store.journal_bytes", "bytes", c "store.journal_bytes") ]

(* Probe spans time a call the product path makes internally (a flat
   compile inside Machine.create, a snapshot capture inside
   slave_prefix, ...) by making it once more, outside the request. *)
let probe spans name f = Spans.span spans name "probe" f

(* Sizes observed by probes, per metric name. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])
