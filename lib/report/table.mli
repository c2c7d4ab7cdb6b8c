(** Plain-text (markdown-style) table rendering and the statistics used
    by the experiment reports. *)

type align = Left | Right

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  rows : string list list;
  notes : string list;
}

val make :
  title:string -> headers:string list -> ?aligns:align list ->
  ?notes:string list -> string list list -> t

val render : t -> string

(** [pct 0.0608 = "6.08%"]. *)
val pct : float -> string

val f2 : float -> string

val mean : float list -> float
val geomean : float list -> float

(** Sample standard deviation; 0 for fewer than two samples. *)
val stddev : float list -> float

val min_max : int list -> int * int
