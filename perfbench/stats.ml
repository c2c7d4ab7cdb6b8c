(* Order statistics over float samples. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

let mean = function [] -> nan | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))
