(** Append-only JSONL journals for checkpoint/resume.

    A journal is a file of one JSON object per line, appended and
    flushed as each work item completes, so an interrupted run loses at
    most the line being written.  {!load} tolerates that even for a
    long-running appender: a truncated or malformed line {e anywhere} —
    the crash artifact may sit mid-file once a restarted server appends
    past it — is skipped with a warning instead of failing the parse. *)

type writer

val create : ?append:bool -> string -> writer
(** Open [path] for journaling; truncates unless [append] (default
    false).  Writes are mutex-protected: worker domains may append
    concurrently. *)

val write : writer -> Nncs_obs.Json.t -> unit
(** Serialize on one line and flush.  A write after {!close} is a
    silent no-op: a worker journaling its last record may race the
    shutdown path, and losing that record is within the crash-loss
    contract — raising through the verdict boundary is not. *)

val close : writer -> unit
(** Close the underlying channel.  Taken under the writer mutex, so a
    concurrent {!write} either completes its line first or becomes a
    no-op — never hits a closed channel.  Idempotent. *)

val with_writer : ?append:bool -> string -> (writer -> 'a) -> 'a

val fold :
  ?on_malformed:(line:int -> string -> unit) ->
  string ->
  init:'a ->
  ('a -> Nncs_obs.Json.t -> 'a) ->
  'a
(** [fold path ~init f] folds [f] over the records of [path] in file
    order, parsing one line at a time, so no more than one record is
    held at once.  Blank lines are skipped silently and malformed lines
    with a warning — [on_malformed ~line reason] is called for each
    (1-based line number), defaulting to a message on stderr.  Never
    raises on content; raises [Sys_error] if the file cannot be read,
    and lets an exception of [f] through (the file is closed). *)

val load :
  ?on_malformed:(line:int -> string -> unit) -> string -> Nncs_obs.Json.t list
(** Every record of [path], in file order: {!fold} into a list. *)
