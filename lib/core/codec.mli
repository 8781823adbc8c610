(** The one hash and box codec behind every persisted store: the verify
    journal and problem fingerprint ({!Verify}), the backreach table
    ([Nncs_backreach.Backreach]) and the serve wire protocol
    ([Nncs_serve.Protocol]). *)

val fnv1a64 : string -> string
(** 64-bit FNV-1a of the bytes, as 16 lowercase hex digits.  Stored
    fingerprints are these digests, so the function must never change. *)

val box_to_json : Nncs_interval.Box.t -> Nncs_obs.Json.t
(** [[[lo, hi], ...]], one pair per dimension; bounds print with 17
    significant digits, so they round-trip exactly. *)

val box_of_json : Nncs_obs.Json.t -> Nncs_interval.Box.t
(** The inverse of {!box_to_json}.  Raises [Nncs_obs.Json.Parse_error]
    on anything but a non-empty list of [[lo, hi]] pairs, and
    [Invalid_argument] or [Nncs_interval.Interval.Numeric_error] on
    bounds {!Nncs_interval.Box.of_bounds} rejects. *)
