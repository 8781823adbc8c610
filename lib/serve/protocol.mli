(** Wire protocol of the resident verification service.

    One JSON object per line in both directions.  Requests are jobs
    (spec + initial set + analysis configuration), cancellations of
    earlier jobs, stats probes, or a shutdown; the server answers with
    a stream of events tagged by the job's client-chosen [id].

    {b Request grammar} (defaults in brackets; see DESIGN.md §12):

    {v
    request  := job | lookup | cancel | stats | shutdown
    job      := { "t":"job", "id":STR,
                  "cells":[cell...] | "partition":{"arcs":N,"headings":N,
                                                   "arc_indices":[N...]},
                  "domain":"interval"|"symbolic"|"affine",   [symbolic]
                  "nn_splits":N,                      (0..8) [0]
                  "max_depth":N,                             [0]
                  "split_dims":[N...],    [paper dims via default config]
                  "split_take":N,         [absent: bisect all split_dims]
                  "m":N, "order":N, "gamma":N,               [10, 6, 5]
                  "scheme":"direct"|"lohner",                [direct]
                  "early_abort":BOOL,                        [true]
                  "workers":N,                               [1]
                  "degrade":BOOL,                            [true]
                  "deadline_s":F, "max_ode_steps":N,
                  "max_symstates":N,                         [unlimited]
                  "memo":BOOL }                              [true]
    cell     := { "box":[[lo,hi]...], "cmd":N }
    lookup   := { "t":"lookup", "id":STR, "box":[[lo,hi]...], "cmd":N }
    cancel   := { "t":"cancel", "id":STR }
    stats    := { "t":"stats" }
    shutdown := { "t":"shutdown" }
    v}

    Unknown fields are ignored, so lines from older clients that still
    carry the retired ["scheduler"] or ["batch_leaves"] field parse to
    the same job.  A job
    with ["nn_splits"] outside [0..8] is answered with an [error] event:
    every F# query of a job runs its 2^nn_splits sub-boxes in one kernel
    call, which no deadline can interrupt.

    {b Events}: [accepted] (echoes the problem fingerprint), [progress]
    (cells done / total, only for jobs that actually run), [verdict]
    (with ["source":"memo"|"run"]), [lookup_result] (the
    answer to a [lookup]: ["status":"unsafe"|"safe"|"out_of_domain"|
    "unavailable"], with ["k"] — sweeps to contact — when unsafe),
    [cancelled] (the terminal event of a cancelled job; also the ack of
    a [cancel] request), [error], [stats], [bye].

    A [lookup] probes the server's quantized backreachability table
    (DESIGN.md §16): it is answered inline by the session loop, before
    the job queue, the verdict memo and every other tier — no
    reachability analysis can run on its behalf.  [status = safe] means
    no covering quantized state of the box can ever reach the erroneous
    set; [unavailable] means the server holds no table. *)

type cells_spec =
  | Explicit of Nncs.Symstate.t list  (** the job carries its own cells *)
  | Partition of { arcs : int; headings : int; arc_indices : int list }
      (** scenario partition built server-side ([arc_indices = []] means
          every arc) *)

type job = {
  id : string;  (** client-chosen correlation id, echoed on every event *)
  cells : cells_spec;
  domain : Nncs_nnabs.Transformer.domain;
  nn_splits : int;
  config : Nncs.Verify.config;
      (** [reach.abs_cache] is ignored: the server injects its own
          process-wide cache *)
  use_memo : bool;
      (** answer from the fingerprint-keyed verdict memo when possible
          (the run's report is stored either way) *)
}

type request =
  | Job of job
  | Lookup of { id : string; box : Nncs_interval.Box.t; cmd : int }
      (** probe the backreach table for this (box, command) — answered
          inline with a [Lookup_result], never queued *)
  | Cancel of string
      (** cancel the job with this id — queued jobs are dropped before
          dispatch, a running job's cancel token is tripped; the ack is
          the job's terminal [Cancelled] event *)
  | Stats
  | Shutdown

type source =
  | Memo  (** answered from the verdict memo, no analysis ran *)
  | Run  (** this job's own analysis run *)

type lookup_status =
  | Lookup_unsafe of { k : int }
      (** some covering quantized state can reach E in [k] sweeps *)
  | Lookup_safe  (** no covering quantized state is in the table *)
  | Lookup_out_of_domain
  | Lookup_unavailable  (** the server holds no backreach table *)

type event =
  | Accepted of { id : string; fingerprint : string }
  | Progress of { id : string; cells_done : int; total : int }
  | Verdict of {
      id : string;
      fingerprint : string;
      source : source;
      coverage : float;
      proved_cells : int;
      unknown_cells : int;
      total_cells : int;
      elapsed_s : float;
    }
  | Lookup_result of { id : string; status : lookup_status }
      (** answer to a [Lookup]; not a job event — it never enters the
          per-id terminal-event accounting *)
  | Cancelled of { id : string; reason : string }
      (** terminal event of a cancelled job; emitted as the immediate
          ack of an effective [Cancel] request *)
  | Job_error of { id : string; reason : string }
      (** [id] is [""] when the offending line could not be parsed far
          enough to recover one *)
  | Stats_report of Nncs_obs.Json.t
  | Bye

val default_config : Nncs.Verify.config
(** The base every job's config starts from: {!Nncs.Verify.default_config}
    with [keep_sets = false] (a server must not retain per-step flow
    pipes) and [max_depth = 0] (refinement is opt-in per job). *)

val request_of_json : Nncs_obs.Json.t -> (request, string) result
(** Total: malformed requests come back as [Error reason], never an
    exception. *)

val request_to_json : request -> Nncs_obs.Json.t
(** Inverse of {!request_of_json} on the fields the grammar exposes
    (clients and benches build jobs through this to exercise the same
    codec the server parses with). *)

val event_to_json : event -> Nncs_obs.Json.t
val event_of_json : Nncs_obs.Json.t -> (event, string) result
