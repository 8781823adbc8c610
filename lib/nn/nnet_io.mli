(** Text serialisation of networks, in the spirit of the Stanford .nnet
    format used to distribute the ACAS Xu networks:

    {v
    // optional comment lines
    nncs-nnet 1
    <num_layers> <input_dim>
    <size activation> per layer
    then per layer: one row of weights per neuron, then the bias row
    v}

    All numbers are written with full hex-float precision so that a
    save/load round trip is bit-exact.  Every weight and bias must be
    finite: NaN and infinities are refused both ways. *)

val save : Network.t -> string -> unit
(** [save net path].  Raises [Invalid_argument], before opening [path],
    when a weight or bias is NaN or infinite. *)

val load : string -> Network.t
(** Raises [Failure] with a descriptive message, including the line
    number, on malformed input or a weight or bias that is not finite. *)

val to_channel : out_channel -> Network.t -> unit
(** As {!save}; the check runs before anything is written. *)

val of_channel : in_channel -> Network.t
(** As {!load}. *)
