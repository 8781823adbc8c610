(** Algorithm 1 of the paper: over-approximation of the plant dynamics
    over one controller period [jT, (j+1)T] with M validated integration
    sub-steps (Section 6.4, "improving precision"). *)

type scheme = Direct | Lohner
(** [Direct]: re-boxed interval Taylor steps ({!Onestep}) — cheap, wraps
    on rotating dynamics.  [Lohner]: mean-value QR steps ({!Lohner}) —
    costlier, but the error set is carried across the M sub-steps in a
    rotating frame, taming wrapping. *)

val scheme_to_string : scheme -> string
(** ["direct"] or ["lohner"]: the one spelling used by traces, the
    serve protocol and problem fingerprints. *)

val scheme_of_string : string -> scheme
(** Inverse of {!scheme_to_string}; raises [Invalid_argument] on any
    other name. *)

type result = {
  pieces : Nncs_interval.Box.t array;
      (** [pieces.(i)] encloses the flow over the i-th sub-interval; the
          collection plays the role of [s_[j[] in the paper. *)
  range : Nncs_interval.Box.t;  (** Hull of [pieces]. *)
  endpoint : Nncs_interval.Box.t;  (** Enclosure at (j+1)T. *)
}

val simulate :
  ?scheme:scheme ->
  Ode.system ->
  t0:float ->
  period:float ->
  steps:int ->
  order:int ->
  state:Nncs_interval.Box.t ->
  inputs:Nncs_interval.Box.t ->
  result
(** [simulate sys ~t0 ~period ~steps:m ~order ~state ~inputs] performs
    [m] chained validated steps of size [period/m] with the given scheme
    ([Direct] when omitted).  May raise {!Apriori.Enclosure_failure}. *)
