(** The resident multi-domain verification server.

    Answers {!Protocol.job}s from three tiers (see DESIGN.md §12–13):

    + the fingerprint-keyed verdict {!Memo} — an identical query returns
      its stored report without touching the reachability pipeline;
    + the process-wide sharded abstraction cache
      ({!Nncs_nnabs.Cache.shared}), injected into every job's reach
      config, so F# boxes computed for one job warm the next;
    + a full run on {!Nncs.Verify.verify_partition}, whose leaf
      frontier fans a hard cell's refinement out across the job's
      [workers] domains.

    The server is scenario-agnostic: the closed-loop system and the
    partition factory are supplied as callbacks at {!create} time, and
    every job selects its abstraction domain and input-split count
    through them.  A memo (and its journal) is only meaningful for one
    [make_system] — the fingerprint does not hash network weights.

    Each job runs behind the {!Nncs_resilience.Firewall}: a poisoned job
    yields an [error] event for its id, never a dead dispatcher.

    Jobs are cancellable: a {!Protocol.request.Cancel} request (or the
    server-side [job_deadline_s] watchdog) trips the run's cooperative
    {!Nncs_resilience.Cancel} token, which the reach loop polls at its
    existing budget gates — the run unwinds within one control step of
    one leaf and the job ends with a terminal [cancelled] event.  Every
    job that misses the memo has its own run and its own token: a job
    identical to one still running runs too, and answers the same
    verdict. *)

type config = {
  dispatchers : int;  (** concurrent jobs (>= 1); each job may additionally
                          spawn its own [config.workers] domains *)
  cache : Nncs_nnabs.Cache.config option;
      (** the process-wide abstraction cache injected into every job
          ([None]: jobs run uncached) *)
  memo_path : string option;  (** verdict-memo journal backing *)
  memo_capacity : int option;
      (** LRU bound on live memo entries ([None]: unbounded); evictions
          leave journal lines behind, which {!Memo} compacts away *)
  max_queue : int option;
      (** admission control: a session sheds job [k+1] with an
          [overloaded] error once [k] jobs are queued ([None]:
          unbounded) *)
  max_line_bytes : int;
      (** cap on one request line; longer lines are discarded with an
          [error] event instead of buffering without bound *)
  job_deadline_s : float option;
      (** server-side straggler watchdog: any job running longer than
          this is cancelled ([None]: no watchdog) *)
  backreach : Nncs_backreach.Backreach.t option;
      (** quantized backreachability table answering [lookup] requests
          ([None]: lookups answer [unavailable]).  Like the memo, a
          table is only meaningful for the network set the server
          actually runs — its fingerprint does not hash weights. *)
}

val default_config : config
(** One dispatcher; a cache of 65536 entries in 8 shards (its keys are
    exact, so served verdicts equal uncached runs); no memo journal,
    unbounded memo and queue, 1 MiB line cap, no job deadline, no
    backreach table. *)

type t

type ticket
(** A handle to one submitted job's run, delivered through
    [submit ~on_start]; feed it to {!cancel_ticket}. *)

val create :
  config ->
  make_system:
    (domain:Nncs_nnabs.Transformer.domain -> nn_splits:int -> Nncs.System.t) ->
  make_cells:
    (arcs:int -> headings:int -> arc_indices:int list -> Nncs.Symstate.t list) ->
  t
(** [make_cells] receives [arc_indices = []] when the job asked for
    every arc.  With [job_deadline_s] set, spawns the watchdog domain —
    {!close} joins it. *)

val submit :
  t ->
  emit:(Protocol.event -> unit) ->
  ?on_start:(ticket -> unit) ->
  Protocol.job ->
  unit
(** Handle one job on the calling domain: emit [accepted] (with the job
    fingerprint: {!Nncs.Verify.fingerprint}, extended with the budget
    limits when any are set — a budget-truncated report must not be
    served for a differently-budgeted job), then either the memoized
    verdict or [progress] events followed by the computed verdict; a
    failure emits [error].  [emit] must tolerate concurrent invocation
    when the job runs with [workers > 1] (progress fires from worker
    domains).

    On a memo miss [on_start] fires with the job's cancellation
    {!ticket} before any reachability runs, and the job runs to its
    terminal event on the calling domain, even when an identical job is
    running elsewhere.  Jobs with [memo = false] skip the memo read but
    still feed the memo.

    A run whose cancel token tripped emits [cancelled], unless
    {!cancel_ticket} already acknowledged the cancel, and its truncated
    report is {e not} memoized.

    A fatal exception the firewall re-raises ([Out_of_memory],
    [Sys.Break]) propagates to the caller without a terminal event, and
    the job no longer counts as running. *)

val cancel_ticket : t -> ticket -> reason:string -> bool
(** Trip the run's cancel token, unless the run has finished or a
    cancel was already acknowledged; returns [false] in those cases,
    and the caller owes the job no [cancelled] event.  The caller that
    receives [true] owes the job its terminal [cancelled] event: the
    run itself then stays silent. *)

val lookup : t -> string -> Nncs.Verify.report option
(** The memoized report for a job fingerprint (as emitted in [accepted]
    and [verdict] events), if any; does not count as a memo hit — lets
    benches compare served verdicts against direct runs. *)

val stats_json : t -> Nncs_obs.Json.t
(** Jobs handled, error/cancelled/shed counts, running jobs, memo
    size/hits/evictions, abstraction-cache hit rate and shard sizes. *)

val run : t -> in_channel -> out_channel -> [ `Shutdown | `Eof ]
(** The JSONL session loop: read one request per line from [ic], stream
    events to [oc].  Jobs are queued and executed by
    [config.dispatchers] domains while the calling domain keeps
    reading, so independent jobs overlap; [lookup], [cancel], [stats]
    and [shutdown] are answered inline — a [lookup] in particular is
    served from the in-memory backreach table ahead of the job queue
    and the verdict memo, so repeated probes never enter the run path
    (a [stats] or [lookup_result] reply can therefore overtake verdicts
    of still-running jobs).  On [shutdown] or end of input the queue is
    drained and the dispatchers joined, so every job of the session has
    had its terminal event when the final [bye] is emitted; the return
    value says which of the two ended the session (a socket server
    keeps accepting after [`Eof], stops after [`Shutdown]).

    Robustness properties:
    - {b Bounded requests}: a line over [max_line_bytes] is discarded
      with an [error] event; unparseable lines produce [error] events
      with an empty id.  Neither kills the session.
    - {b Admission control}: with [max_queue = Some k], a job arriving
      on a full queue is shed with an [overloaded] error before any
      work happens.  Jobs with an empty id, or an id still queued or
      running in this session, are rejected with an [error] carrying
      an empty id (naming the offender in the reason): a terminal error
      under the original id would displace the first job's verdict.
    - {b Cancellation}: [cancel] of a queued job drops it before
      dispatch; of a running job, trips its token.  Either way the
      job's terminal event is [cancelled], emitted immediately as the
      ack.  Cancelling a finished or unknown id yields an [error] with
      an empty id (the job's own single terminal event is never
      duplicated — per id, exactly one of [verdict] / [cancelled] /
      [error] is emitted, later arrivals being suppressed).
    - {b Broken clients}: a failed write to [oc] (e.g. [EPIPE] with
      SIGPIPE ignored) silently drops that session's remaining events —
      running jobs complete and still feed the memo — and a read error
      on [ic] ends the session exactly like end-of-input, draining the
      queue and joining the dispatchers.
    - {b Dispatcher crashes}: a fatal exception killing a dispatcher
      domain is absorbed at join; items it left behind are drained on
      the session domain, where a further crash costs only the item it
      hit, so every accepted job still reaches a terminal event and the
      session still ends with [bye]. *)

val close : t -> unit
(** Stop the watchdog (if any), compact and close the memo journal. *)
