(** Sound one-dimensional interval arithmetic.

    An interval is a non-empty set [{x | lo <= x <= hi}] of reals with
    floating-point endpoints.  All operations return enclosures of the
    exact set image (outward rounding, see {!Rounding}).  An arithmetic
    operation with an exact-zero operand (both bounds [+0.] or [-0.])
    returns the exact result instead: {!add}, {!sub} and {!add_float}
    return the other operand ({!neg} of it for [sub zero b]), and
    {!mul}, {!div} and {!mul_float} return {!zero}, also against an
    infinite bound. *)

type t = private { lo : float; hi : float }

exception Empty_meet
(** Raised by {!meet_exn} when the intersection is empty. *)

exception Division_by_zero_interval
(** Raised by {!div} when the divisor contains zero. *)

exception Numeric_error of string
(** Numeric garbage surfaced at a guard: a NaN bound reaching {!make},
    {!of_float} or {!meet}, or a non-finite inflation radius.  Distinct
    from [Invalid_argument] (a caller bug) so the verification driver
    can classify it as a [Numeric] failure and degrade the offending
    cell to [Unknown] instead of dying. *)

(** {1 Construction} *)

val make : float -> float -> t
(** [make lo hi] requires [lo <= hi] and both finite or infinite, not
    NaN.  Raises {!Numeric_error} on NaN bounds, [Invalid_argument] on
    [lo > hi]. *)

val of_float : float -> t
(** Degenerate interval [x, x]. *)

val zero : t
val one : t

val pi : t
(** Tight enclosure of pi. *)

val two_pi : t
val half_pi : t

val entire : t
(** The whole real line. *)

(** {1 Accessors} *)

val lo : t -> float
val hi : t -> float
val mid : t -> float
(** Midpoint, rounded to nearest (a member of the interval). *)

val rad : t -> float
(** Upper bound on half the width. *)

val width : t -> float
(** Upper bound on [hi - lo]. *)

val mag : t -> float
(** [max |x|] over the interval. *)

val mig : t -> float
(** [min |x|] over the interval. *)

(** {1 Set predicates and operations} *)

val contains : t -> float -> bool
val subset : t -> t -> bool
(** [subset a b] is true iff [a] is included in [b]. *)

val intersects : t -> t -> bool
val equal : t -> t -> bool
val hull : t -> t -> t
val meet : t -> t -> t option
val meet_exn : t -> t -> t
val bisect : t -> t * t
(** Split at the midpoint. *)

val inflate : t -> float -> t
(** [inflate x eps] widens both ends by [eps >= 0] absolutely.  Raises
    {!Numeric_error} on a NaN or infinite [eps] (an infinite radius
    would silently turn the interval into the whole line). *)

val is_degenerate : t -> bool
val is_bounded : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Raises {!Division_by_zero_interval} when the divisor contains 0. *)

val inv : t -> t
val add_float : t -> float -> t
val mul_float : float -> t -> t
val sqr : t -> t
val sqrt : t -> t
(** Requires [hi >= 0]; the negative part, if any, is clipped (the
    enclosure of sqrt over the nonnegative part). *)

val pow_int : t -> int -> t
(** Integer power, [n >= 0]. *)

val abs : t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

(** {1 Transcendentals} *)

val exp : t -> t
val log : t -> t
(** Requires [hi > 0]; positive-part enclosure. *)

val sin : t -> t
val cos : t -> t
val atan : t -> t
val atan2 : t -> t -> t
(** [atan2 y x]: enclosure of the angle of points (x, y) in the box.
    Falls back to [[-pi, pi]] when the box meets the branch cut or the
    origin. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
