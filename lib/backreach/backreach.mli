(** Quantized backward reachability (Bak & Tran, "Quantized State
    Backreachability"): an oracle independent of the forward analysis.

    The plant state space is quantized into a uniform grid (the same
    subdivision as {!Nncs.Partition.grid}); a {e quantized state} is one
    grid cell paired with one command index.  A quantized state makes
    {e contact} when its own box, or the validated flow over one
    controller period from it, can intersect the erroneous set [E]; its
    {e successors} pair every cell covering the endpoint enclosure with
    every next command [Controller.abstract_step] allows on the cell's
    own box — the controller samples the state at the start of the
    period, as in {!Nncs.Reach.analyze}.  Iterating the
    predecessor relation from the contact states to a fixed point yields
    the {e unsafe backreach table}: every quantized state from which the
    abstraction cannot rule out eventually touching [E], with the
    minimal number of sweeps (control periods) to contact.

    Because both the flow and the controller abstraction over-approximate,
    table membership over-approximates "some trajectory from this
    quantized state reaches E": a state {e not} in the table provably
    never reaches [E] (under the escape policy below).  Cross-checking a
    forward {!Nncs.Verify.report} against the table therefore turns any
    strong disagreement into evidence of a bug in one of the two
    analyses — see {!check_forward} and DESIGN.md §16 for exactly which
    direction is a theorem and which needs the quantization-exact test
    configurations.

    Soundness at the domain boundary: a successor enclosure leaving the
    quantized domain has no covering cells.  With [escape_unsafe =
    false] (default) the escaping portion is {e dropped}, which is sound
    only when every out-of-domain state is already in the target set [T]
    (true for the shipped ACAS Xu domain on x/y: beyond sensor range the
    intruder has left; {e not} true for an arbitrary domain — see
    DESIGN.md §16).  With [escape_unsafe = true] an escaping state is
    conservatively treated as a contact. *)

type config = {
  domain : Nncs_interval.Box.t;
      (** quantized region of the plant state space; dimensions with one
          grid cell may be degenerate (point intervals) *)
  grid : int array;  (** cells per dimension, same length as [domain] *)
  reach : Nncs.Reach.config;
      (** integration scheme/steps/order for the one-period flow (gamma
          and the forward-only fields are ignored) *)
  workers : int;  (** parallel domains for the transition sweep, >= 1 *)
  escape_unsafe : bool;  (** treat domain escape as contact (see above) *)
}

val default_config :
  domain:Nncs_interval.Box.t -> grid:int array -> config
(** Reach defaults, one worker, [escape_unsafe = false]. *)

type t
(** An unsafe backreach table: immutable after {!build}/{!load}, safe to
    share across domains. *)

val fingerprint : config -> Nncs.System.t -> string
(** Hash of everything the table depends on: domain, grid, command set,
    period, integration parameters, controller abstraction domain and
    splits, escape policy, and per-(cell midpoint, command) membership
    probes of [E] and [T].  Network {e weights} are not hashed — like
    the serve memo's fingerprint, a table is only valid for the network
    set it was built with (DESIGN.md §16). *)

val build :
  ?journal:string ->
  ?resume:bool ->
  ?progress:(done_states:int -> total:int -> unit) ->
  config ->
  Nncs.System.t ->
  t
(** Compute the table.  With [journal], every per-state transition
    record and every BFS sweep is appended to a JSONL journal (one
    [backreach-meta] line, then [trans]/[sweep]/[done] lines) — the one
    persisted form of a table, read back by {!load}.  With [resume] and
    an existing journal whose fingerprint matches, already-journaled
    transition records are not recomputed and the journal is appended
    to — an interrupted build restarts mid-sweep; {!build_seconds} then
    counts the resuming run only.  Raises [Invalid_argument] on a
    malformed config, or on resuming a journal that is unreadable or
    has another fingerprint.  Per-state analysis failures (enclosure
    divergence, numeric errors) never escape: the state is
    conservatively treated as a contact and counted in
    {!failed_states}.  [progress] may be called from worker domains
    (serialized). *)

type verdict =
  | Unsafe of { k : int }
      (** some covering quantized state can reach [E]; [k] is the
          minimal sweep count over the covering states *)
  | Safe  (** no covering quantized state is in the table *)
  | Out_of_domain  (** the queried box is not inside the table domain *)

val query : t -> box:Nncs_interval.Box.t -> cmd:int -> verdict
(** Verdict for an arbitrary box: covering cells are every grid cell
    whose interior overlaps the box (degenerate dimensions compare by
    coincidence).  Never raises; a dimension mismatch or an
    out-of-range command answers [Out_of_domain]. *)

val num_states : t -> int
val num_unsafe : t -> int
val sweeps : t -> int
(** Largest sweeps-to-contact over the table (0 when empty). *)

val build_seconds : t -> float
val failed_states : t -> int
(** States whose transition computation failed and were conservatively
    seeded as contacts. *)

val escaped_states : t -> int
val table_fingerprint : t -> string

(** {1 Persistence} *)

type load_error =
  | Incomplete of { fingerprint : string; missing : int; states : int }
      (** a build journal of [fingerprint] that lacks [missing] of its
          [states] transition records, or its [done] record when
          [missing = 0]: an interrupted build, which {!build} with
          [~resume:true] finishes *)
  | Unreadable of string
      (** not a loadable build journal, with the reason: unreadable
          file, no meta record, a malformed record, format version 1
          (transitions that chose the next commands on the endpoint
          enclosure), or a compact table of the [unsafe]/[table-end]
          format, which is no longer read *)

val load_error_to_string : load_error -> string

val load : string -> (t, load_error) result
(** Read a complete {!build} journal as a stream and re-derive the fixed
    point from its transition records.  The table reports the build's
    own failed and escaped counts and, from the [done] record, its
    build time. *)

(** {1 Forward cross-check} *)

type finding_kind =
  | Safe_in_backreach of { k : int }
      (** forward proved the cell safe, yet {e every} covering quantized
          state is in the unsafe table *)
  | Unsafe_not_in_backreach of { step : int }
      (** forward reached [E] at [step], yet {e no} covering quantized
          state is in the table — the table proves [E] unreachable, so
          the forward contact is spurious or one analysis is broken *)

type finding = {
  f_cell : int;  (** index of the cell in the forward partition *)
  f_cmd : int;
  f_box : Nncs_interval.Box.t;
  f_kind : finding_kind;
}

type cross_check = {
  findings : finding list;
  checked_safe : int;  (** fully-proved cells compared *)
  checked_unsafe : int;  (** error-reaching cells compared *)
  skipped : int;
      (** cells outside the table domain, with an unknown verdict, or
          with no leaves *)
}

val check_forward : t -> Nncs.Verify.report -> cross_check
(** Replay every forward verdict against the table.  A cell's box is the
    hull of its leaves; cells whose verdict is neither fully proved nor
    error-reaching (failures, horizon exhaustion, mixed refinements) are
    skipped — the oracle compares verdicts, it does not invent them. *)

val finding_to_json : finding -> Nncs_obs.Json.t
