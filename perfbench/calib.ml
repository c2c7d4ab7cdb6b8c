(* Host-speed calibration.  The benchmark's host is a few vCPUs of a
   shared machine whose speed drifts by tens of percent between time
   windows, so a run's raw times say as much about the window it ran in
   as about the program.  Between requests the loop runs a fixed
   reference kernel, independent of the library, for a fixed share of
   the time the requests take, so the kernel samples the host at the
   same moments and in the same proportion as the requests.  Timed
   results are then reported at the reference speed: each set-up, and
   each cycle's requests, divided by the slowdown the kernel runs
   interleaved with them measured: their mean time over [ref_ms].

   Requests, set-ups and kernel runs are timed in process CPU time
   (user + system, from getrusage): the loop is single-threaded and
   never waits, so this is its wall time less the time the hypervisor
   gave its vCPU to other guests, which the paravirtualised guest
   kernel accounts as steal. *)

let cpu_ms () = Sys.time () *. 1e3

(* The kernel: the runtime's string hash over a fixed set of short
   strings.  Of the kernels tried (this one, a small bytecode
   interpreter, pointer chasing through a 512 KiB ring), its speed
   followed the workloads' cycle by cycle most closely.  It allocates
   nothing, so it does not disturb the garbage collector the library
   shares, and an untimed pass over its strings comes first, so what
   the request before it left in the caches does not change its
   time. *)
let words =
  Array.init 64 (fun i ->
      Printf.sprintf "calibration-word-%04d-%s" i (String.make (i mod 16) 'x'))

let hashes = 30_000

let warm () =
  let h = ref 0 in
  Array.iter (fun w -> h := !h lxor Hashtbl.hash w) words;
  ignore (Sys.opaque_identity !h)

let kernel () =
  let h = ref 0 in
  for i = 1 to hashes do
    h := !h lxor Hashtbl.hash (Array.unsafe_get words (i land 63))
  done;
  ignore (Sys.opaque_identity !h)

(* The kernel's CPU time on the host the benchmark was built on (a
   2.1 GHz Xeon vCPU in one of its faster phases).  Reported times are
   scaled to this speed; a host of another kind shifts every figure by
   one common factor. *)
let ref_ms = 0.5

(* The share of the requests' time spent in the kernel. *)
let duty = 0.1

type t = {
  mutable work_ms : float;  (** time of the requests and set-ups sampled *)
  mutable kernel_ms : float;
  mutable runs : int;
}

let create () = { work_ms = 0.; kernel_ms = 0.; runs = 0 }

(* Account [ms] of request or set-up time, then run the kernel until it
   has had its share of the time so far. *)
let keep_up t ms =
  t.work_ms <- t.work_ms +. ms;
  while t.kernel_ms < duty *. t.work_ms do
    warm ();
    let c0 = cpu_ms () in
    kernel ();
    t.kernel_ms <- t.kernel_ms +. (cpu_ms () -. c0);
    t.runs <- t.runs + 1
  done

(* How much slower than the reference the host ran: over every kernel
   run so far, or over those since [mark] (all of them when none ran
   since). *)
let slowdown t =
  if t.runs = 0 then 1. else t.kernel_ms /. float_of_int t.runs /. ref_ms

type mark = float * int

let mark t : mark = (t.kernel_ms, t.runs)

let slowdown_since t ((kernel_ms, runs) : mark) =
  if t.runs = runs then slowdown t
  else (t.kernel_ms -. kernel_ms) /. float_of_int (t.runs - runs) /. ref_ms
