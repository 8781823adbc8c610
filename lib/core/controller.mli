(** The generic neural-network-based controller model of Section 4.3:
    a pre-processing, a collection of ReLU networks selected from the
    previous command by [select] (the paper's lambda), and a
    post-processing onto the finite command set.

    Both a concrete semantics (used by simulation and falsification) and
    an abstract semantics (Pre#, F#, Post# — used by reachability) are
    carried; the abstract functions must over-approximate the concrete
    ones, which is checked by the test suite on the shipped instances. *)

type t = {
  period : float;  (** T, seconds *)
  commands : Command.set;  (** U *)
  networks : Nncs_nn.Network.t array;  (** N(1) ... N(D) *)
  select : int -> int;  (** lambda: previous command index -> network index *)
  pre : float array -> float array;  (** Pre *)
  pre_abs : Nncs_interval.Box.t -> Nncs_interval.Box.t;  (** Pre# *)
  post : float array -> int;  (** Post: network output -> command index *)
  post_abs : Nncs_interval.Box.t -> int list;  (** Post# *)
  domain : Nncs_nnabs.Transformer.domain;  (** abstraction used for F# *)
  nn_splits : int;  (** input bisections inside F# (0 = none, at most 8) *)
}

val make :
  period:float ->
  commands:Command.set ->
  networks:Nncs_nn.Network.t array ->
  select:(int -> int) ->
  pre:(float array -> float array) ->
  pre_abs:(Nncs_interval.Box.t -> Nncs_interval.Box.t) ->
  post:(float array -> int) ->
  post_abs:(Nncs_interval.Box.t -> int list) ->
  ?domain:Nncs_nnabs.Transformer.domain ->
  ?nn_splits:int ->
  unit ->
  t
(** Validates that [select] maps every command index to a valid network
    index, that the period is positive and that [nn_splits] is in
    [0, 8], raising [Invalid_argument] otherwise.  [domain] defaults to
    [Symbolic], [nn_splits] to 0.  The bound keeps one F# query at most
    2^8 = 256 sub-boxes: a query runs as one uninterruptible kernel
    call, since budgets and deadlines are only checked between control
    steps. *)

val domain_tag : Nncs_nnabs.Transformer.domain -> int
(** A distinct small integer per abstraction domain ([Interval] 0,
    [Symbolic] 1, [Affine] 2): with [nn_splits], the tag of the
    abstraction cache's key, so queries that run different abstractions
    never share an entry. *)

val concrete_step : t -> state:float array -> prev_cmd:int -> int
(** One controller execution: the command index for the next period. *)

val abstract_step :
  ?cache:Nncs_nnabs.Cache.t ->
  t ->
  box:Nncs_interval.Box.t ->
  prev_cmd:int ->
  int list
(** Sound set of reachable next-command indices from any sampled state in
    [box] with the given previous command (stage 2 of the procedure).

    With [cache], the F# evaluation is memoized per (network, previous
    command, domain and splits, [Pre#] box); a hit returns the score
    box an uncached call computes (see {!Nncs_nnabs.Cache}). *)

val abstract_scores :
  ?cache:Nncs_nnabs.Cache.t ->
  t ->
  box:Nncs_interval.Box.t ->
  prev_cmd:int ->
  Nncs_interval.Box.t
(** The intermediate p-box [y] = F#(Pre#(box)) before post-processing,
    which {!abstract_step} maps through [post_abs]; also used by the
    influence-guided splitting heuristic.  The 2^[nn_splits] bisection
    sub-boxes of [Pre#(box)] go through one kernel call
    ({!Nncs_nnabs.Transformer.propagate_split}).  [cache] as in
    {!abstract_step}. *)

(** {1 Ready-made post-processings} *)

val argmin_post : float array -> int
(** The ACAS Xu style post-processing: pick the command whose score is
    minimal (ties to the smallest index).  Raises [Invalid_argument] on
    a non-finite score: a NaN would make every comparison false and
    silently select index 0, so poisoned network output surfaces as a
    failure instead of a confidently wrong command. *)

val argmin_post_abs : Nncs_interval.Box.t -> int list
(** Sound abstraction: command i is reachable iff its score can be
    lower than or equal to every other score. *)

val argmax_post : float array -> int
(** Like {!argmin_post} with maximal scores; raises [Invalid_argument]
    on a non-finite score. *)

val argmax_post_abs : Nncs_interval.Box.t -> int list

val identity_pre : float array -> float array
val identity_pre_abs : Nncs_interval.Box.t -> Nncs_interval.Box.t
