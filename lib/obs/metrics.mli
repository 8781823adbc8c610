(** Process-wide counters and histograms for the verification pipeline.

    All mutation goes through [Atomic] cells, so instruments are safe to
    hit concurrently from the [Domain.spawn] workers of
    [Verify.verify_partition] — increments from every domain land in the
    same process-wide registry and a snapshot after the join sees the
    merged totals.  Instruments are registered once by name (get-or-create)
    and are meant to be created at module initialisation, keeping the hot
    path down to one atomic read-modify-write per update. *)

type counter

val counter : string -> counter
(** Get or create the process-wide counter registered under this name. *)

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

type histogram

val histogram : string -> histogram
(** Get or create a histogram (count / sum / min / max of observations). *)

val observe : histogram -> float -> unit

type hist_stats = { count : int; sum : float; min : float; max : float }

val hist_value : histogram -> hist_stats

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * hist_stats) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** A consistent-enough view of every registered instrument (individual
    cells are read atomically; the set is not globally synchronized). *)

val reset : unit -> unit
(** Zero every instrument (registrations survive).  Call only when no
    worker domain is running. *)

val jsonl_lines : unit -> Json.t list
(** One object per instrument, in the trace JSONL schema:
    [{"t":"counter","name":n,"value":v}] and
    [{"t":"hist","name":n,"count":c,"sum":s,"min":m,"max":x}].
    Instruments with no recorded activity are omitted. *)
