(** Uniform interface over the network abstract transformers F#, plus an
    input-splitting refinement wrapper. *)

type domain = Interval | Symbolic | Affine

val domain_of_string : string -> domain
val domain_to_string : domain -> string

val propagate :
  domain -> Nncs_nn.Network.t -> Nncs_interval.Box.t -> Nncs_interval.Box.t
(** Sound box enclosure of the network image of the input box:
    [propagate_batch] on a batch of one. *)

val propagate_split :
  domain ->
  splits:int ->
  Nncs_nn.Network.t ->
  Nncs_interval.Box.t ->
  Nncs_interval.Box.t
(** Bisect the input box along its widest dimension, recursively,
    [splits] levels deep (2^splits sub-boxes), propagate each, and hull
    the results — tighter, at exponential cost in [splits]:
    [propagate_split_batch] on a batch of one. *)

val propagate_batch :
  domain ->
  Nncs_nn.Network.t ->
  Nncs_interval.Box.t array ->
  Nncs_interval.Box.t array
(** [propagate] of every box.  The [Symbolic] domain runs all boxes as
    the lanes of one kernel call ({!Symbolic_prop.propagate_batch});
    the other domains map their transformer.  Lanes are independent: a
    box's enclosure is the same bit for bit at any batch width and
    position. *)

val propagate_split_batch :
  domain ->
  splits:int ->
  Nncs_nn.Network.t ->
  Nncs_interval.Box.t array ->
  Nncs_interval.Box.t array
(** [propagate_split] of every box: all [k * 2^splits] bisection leaves
    go through one {!propagate_batch} call, and each box's hull tree is
    rebuilt in the order of the bisection recursion.  Raises
    [Invalid_argument] on negative [splits]. *)

val meet_all : domain list -> Nncs_nn.Network.t -> Nncs_interval.Box.t -> Nncs_interval.Box.t
(** Intersection of the enclosures from several domains (all sound, so
    the meet is sound and at least as tight as each). *)
