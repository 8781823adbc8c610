(** Symbolic interval propagation through a ReLU network, in the style of
    ReluVal / Neurify (the tool the paper uses for F#).

    Every neuron carries a pair of affine functions of the *network
    inputs* that bound it from below and above over the given input box.
    Affine layers transform these bounds exactly (up to rounding, which
    is accounted for in a per-equation error term); unstable ReLU nodes
    are relaxed with the standard chord (upper) and scaled-identity
    (lower) linear relaxations.  The result is usually far tighter than
    plain interval propagation because input dependencies survive the
    affine layers. *)

val propagate : Nncs_nn.Network.t -> Nncs_interval.Box.t -> Nncs_interval.Box.t
(** Sound enclosure of [{F(x) | x in box}]: [propagate_batch] on a batch
    of one. *)

val propagate_batch :
  Nncs_nn.Network.t -> Nncs_interval.Box.t array -> Nncs_interval.Box.t array
(** [propagate_batch net boxes] pushes all [k] boxes through the network
    as the lanes of one pass per layer: the scratch planes hold
    [k x neurons] rows of [m] coefficients, with a constant and an error
    term per row, so a batch shares the layer passes and the per-call
    set-up.  Lanes are independent: each keeps its own box, input
    magnitude and accumulators, and its float-operation sequence depends
    neither on [k] nor on its position in the batch, so each output is
    bit-for-bit the same box at any batch width.  Raises
    [Invalid_argument] if any box's dimension differs from the network's
    input dimension. *)

val inverted_hull : float -> float -> Nncs_interval.Interval.t
(** The sound enclosure returned when an evaluated lower bound [lo]
    exceeds the upper bound [hi]: the ordered hull [[hi, lo]] inflated on
    both sides by an {e upper} bound of the gap [lo - hi] (the slack that
    produced the inversion).  Exposed for the adversarial-magnitude
    regression test: the gap must be computed with [Rounding.sub_up] —
    round-to-nearest can undershoot it and leave the hull not covering
    both original bounds. *)

val output_bounds :
  Nncs_nn.Network.t ->
  Nncs_interval.Box.t ->
  (float array * float * float array * float) array
(** For each output neuron, the final symbolic bounds
    [(lo_coeffs, lo_const, up_coeffs, up_const)] — exposed for
    inspection and tests. *)

(** Narrow hooks for the soundness regression tests; not part of the
    propagation API. *)
module Internal : sig
  val row_bounds :
    Nncs_interval.Box.t ->
    c:float array ->
    k:float ->
    e:float ->
    float * float
  (** [(lower, upper)] concrete bounds of the single symbolic row with
      coefficients [c], constant [k] and error term [e], evaluated over
      the box with the kernel's own row evaluators — the only way to
      exercise a poisoned {e coefficient} plane whose constant/error
      lanes stay finite. *)
end
