(** Per-domain buffered event sink serializing to JSONL.

    Tracing is globally off by default: every instrumentation site
    checks {!enabled} first, so a disabled build path costs one atomic
    read and a branch (the "no-op sink").  When enabled, each domain
    appends completed spans to its own buffer (domain-local storage, no
    locking on the hot path); buffers register themselves in a global
    list on first use, and {!events} / {!write_jsonl} merge them — the
    merge is meant to run after worker domains have been joined.

    JSONL schema (one object per line):
    - [{"t":"meta","version":1,"wall_start":0,"wall_end":W}]
    - [{"t":"span","name":N,"dom":D,"ts":T,"dur":U,"self":S,"depth":K,
       "attrs":{...}}] — [ts] seconds since {!enable}, [dur] inclusive
      duration, [self] duration minus directly-nested child spans
    - [{"t":"counter",...}] / [{"t":"hist",...}] — appended from
      {!Metrics.jsonl_lines} by the caller of {!write_jsonl}. *)

type attr = Int of int | Float of float | Str of string | Bool of bool

type event = {
  name : string;  (** phase label, dot-separated ([reach.resize], ...) *)
  dom : int;  (** id of the domain that ran the span *)
  ts : float;  (** start, seconds since {!enable} *)
  dur : float;  (** wall seconds, including children *)
  self : float;  (** [dur] minus time spent in direct child spans *)
  depth : int;  (** nesting depth within its domain at open time *)
  attrs : (string * attr) list;
}

val enabled : unit -> bool

val enable : unit -> unit
(** Switch collection on and (re)start the trace epoch; also clears
    previously collected events. *)

val disable : unit -> unit
(** Stop collecting; already-buffered events are kept for {!events}. *)

val now_rel : unit -> float
(** Seconds since {!enable} on the monotonic {!Clock}, so span start
    times and durations never jump with the wall clock. *)

val domain_id : unit -> int

val emit : event -> unit
(** Append to the calling domain's buffer (unconditional — gating on
    {!enabled} is the instrumentation site's job, see {!Span}). *)

val clear : unit -> unit
(** Drop all buffered events.  Call only when no worker domain is
    running. *)

val events : unit -> event list
(** Merge of every domain's buffer, sorted by start time. *)

val event_to_json : event -> Json.t

val event_of_json : Json.t -> event
(** Inverse of {!event_to_json}; raises [Json.Parse_error] on objects
    that are not span events. *)

val write_jsonl : ?extra:Json.t list -> out_channel -> unit
(** Meta line, then every span event, then the [extra] lines (typically
    {!Metrics.jsonl_lines}). *)

val write_file : ?extra:Json.t list -> string -> unit
