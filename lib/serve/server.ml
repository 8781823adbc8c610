module J = Nncs_obs.Json
module Clock = Nncs_obs.Clock
module Metrics = Nncs_obs.Metrics
module Cancel = Nncs_resilience.Cancel
module Firewall = Nncs_resilience.Firewall
module Fault = Nncs_resilience.Fault
module Fail = Nncs_resilience.Failure
module Budget = Nncs_resilience.Budget
module Cache = Nncs_nnabs.Cache
module T = Nncs_nnabs.Transformer
module Verify = Nncs.Verify
module Reach = Nncs.Reach

let m_jobs = Metrics.counter "serve.jobs"
let m_errors = Metrics.counter "serve.errors"
let m_cancelled = Metrics.counter "serve.cancelled_jobs"
let m_shed = Metrics.counter "serve.shed_jobs"
let m_lookups = Metrics.counter "serve.lookups"

type config = {
  dispatchers : int;
  cache : Cache.config option;
  memo_path : string option;
  memo_capacity : int option;
  max_queue : int option;
  max_line_bytes : int;
  job_deadline_s : float option;
  backreach : Nncs_backreach.Backreach.t option;
}

let default_config =
  {
    dispatchers = 1;
    cache =
      Some { Cache.default_config with Cache.capacity = 65536 };
    memo_path = None;
    memo_capacity = None;
    max_queue = None;
    max_line_bytes = 1 lsl 20;
    job_deadline_s = None;
    backreach = None;
  }

(* ----- one job, one run -----

   Every job that misses the memo runs on its own, with its own cancel
   token.  An identical job that arrives while one runs also runs: a
   verdict depends only on the system, the cells and the analysis
   settings, so it repeats the first run's verdict at the cost of extra
   work, and the memo keeps whichever report was stored first.

   A ticket's [state] settles the race between a client's cancel and
   the run's completion: the cancel acks only on [Running -> Acked], the
   run emits its terminal event only on [Running -> Finished], so
   exactly one side emits. *)

type state = Running | Acked | Finished

type ticket = {
  key : int;  (* unique id in [live], for the watchdog *)
  t0 : float;  (* monotonic submit stamp *)
  cancel : Cancel.t;
  mutable state : state;  (* under [lock] *)
}

type t = {
  config : config;
  make_system : domain:T.domain -> nn_splits:int -> Nncs.System.t;
  make_cells :
    arcs:int -> headings:int -> arc_indices:int list -> Nncs.Symstate.t list;
  memo : Memo.t;
  lock : Mutex.t;
  live : (int, ticket) Hashtbl.t;  (* every running job, by key *)
  mutable next_key : int;
  stopping : bool Atomic.t;
  mutable watchdog : unit Domain.t option;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The straggler watchdog: with [job_deadline_s] set, a domain sweeps
   the running jobs and trips the cancel token of any job older than
   the deadline.  Tripping is all it does — the terminal [cancelled]
   event is emitted by the run's completion path, which observes the
   token within one budget gate. *)
let watchdog_loop t deadline =
  let interval = Float.min 0.05 (deadline /. 4.0) in
  while not (Atomic.get t.stopping) do
    Unix.sleepf interval;
    let now = Clock.monotonic_s () in
    let victims =
      with_lock t (fun () ->
          Hashtbl.fold
            (fun _ tk acc -> if now -. tk.t0 >= deadline then tk :: acc else acc)
            t.live [])
    in
    List.iter
      (fun tk -> Cancel.cancel tk.cancel ~reason:"job deadline exceeded")
      victims
  done

let create config ~make_system ~make_cells =
  if config.dispatchers < 1 then
    invalid_arg "Server.create: dispatchers must be >= 1";
  if config.max_line_bytes < 1 then
    invalid_arg "Server.create: max_line_bytes must be >= 1";
  (match config.max_queue with
  | Some k when k < 1 -> invalid_arg "Server.create: max_queue must be >= 1"
  | _ -> ());
  (match config.job_deadline_s with
  | Some d when d <= 0.0 ->
      invalid_arg "Server.create: job_deadline_s must be positive"
  | _ -> ());
  (* install the process-wide cache up front so the very first job (and
     any code path probing [Cache.shared] for stats) sees the same
     table *)
  (match config.cache with
  | Some c -> ignore (Cache.shared c)
  | None -> ());
  let t =
    {
      config;
      make_system;
      make_cells;
      memo =
        Memo.create ?path:config.memo_path ?capacity:config.memo_capacity ();
      lock = Mutex.create ();
      live = Hashtbl.create 16;
      next_key = 0;
      stopping = Atomic.make false;
      watchdog = None;
    }
  in
  (match config.job_deadline_s with
  | Some d -> t.watchdog <- Some (Domain.spawn (fun () -> watchdog_loop t d))
  | None -> ());
  t

let resolve_cells t = function
  | Protocol.Explicit cells -> cells
  | Protocol.Partition { arcs; headings; arc_indices } ->
      t.make_cells ~arcs ~headings ~arc_indices

(* [Verify.fingerprint] deliberately omits [config.limits]: a per-cell
   journal written under a tight budget is still resumable under a
   generous one.  Whole-report memoization is different — a
   budget-truncated, unknown-heavy report is not a valid answer for a
   job with a different (or no) budget — so the serve-layer key extends
   the digest with the limits.  Unlimited jobs (the common case) keep
   the bare digest, and with it any previously persisted memo
   journal. *)
let job_fingerprint ~config sys cells =
  let fp = Verify.fingerprint ~config sys cells in
  let l = config.Verify.limits in
  if Budget.is_unlimited l then fp
  else
    let flt = function None -> "-" | Some x -> Printf.sprintf "%.17g" x in
    let int = function None -> "-" | Some n -> string_of_int n in
    Printf.sprintf "%s+b:%s:%s:%s" fp
      (flt l.Budget.deadline_s)
      (int l.Budget.max_ode_steps)
      (int l.Budget.max_symstates)

let cancel_ticket t ticket ~reason =
  let acked =
    with_lock t (fun () ->
        match ticket.state with
        | Running ->
            ticket.state <- Acked;
            Cancel.cancel ticket.cancel ~reason;
            true
        | Acked | Finished -> false)
  in
  if acked then Metrics.incr m_cancelled;
  acked

(* One job, firewalled.  The fingerprint is computed before consulting
   the memo, so a hit answers without running any reachability.  A
   run's report is always stored unless its token tripped — a
   cancellation-truncated report must never poison the memo — and even
   for [memo=false] jobs, which opt out of reading the memo, not of
   feeding it. *)
let submit t ~emit ?on_start (job : Protocol.job) =
  Metrics.incr m_jobs;
  let t0 = Clock.monotonic_s () in
  let prologue =
    Firewall.protect ~classify:Reach.classify (fun () ->
        Fault.trigger ~key:job.id "serve.job";
        let sys = t.make_system ~domain:job.domain ~nn_splits:job.nn_splits in
        let cells = resolve_cells t job.cells in
        (match cells with
        | [] -> invalid_arg "job resolves to an empty partition"
        | _ :: _ -> ());
        let config =
          {
            job.config with
            Verify.reach =
              { job.config.Verify.reach with Reach.abs_cache = t.config.cache };
          }
        in
        let fp = job_fingerprint ~config sys cells in
        (sys, cells, config, fp))
  in
  match prologue with
  | Error failure ->
      Metrics.incr m_errors;
      emit (Protocol.Job_error { id = job.id; reason = Fail.to_string failure })
  | Ok (sys, cells, config, fp) -> (
      emit (Protocol.Accepted { id = job.id; fingerprint = fp });
      let verdict source (report : Verify.report) =
        Protocol.Verdict
          {
            id = job.id;
            fingerprint = fp;
            source;
            coverage = report.Verify.coverage;
            proved_cells = report.Verify.proved_cells;
            unknown_cells = report.Verify.unknown_cells;
            total_cells = report.Verify.total_cells;
            elapsed_s = Clock.elapsed_s ~since:t0;
          }
      in
      let memoized = if job.use_memo then Memo.find t.memo fp else None in
      match memoized with
      | Some report -> emit (verdict Protocol.Memo report)
      | None -> (
          let ticket =
            with_lock t (fun () ->
                let key = t.next_key in
                t.next_key <- key + 1;
                let tk = { key; t0; cancel = Cancel.create (); state = Running } in
                Hashtbl.replace t.live key tk;
                tk)
          in
          (* settled on every exit: a fatal exception the firewall
             re-raises (Out_of_memory, Sys.Break) would otherwise leave
             the ticket in [live], running forever for [stats] and the
             watchdog *)
          let finished = ref false in
          let settle () =
            finished :=
              with_lock t (fun () ->
                  Hashtbl.remove t.live ticket.key;
                  match ticket.state with
                  | Running ->
                      ticket.state <- Finished;
                      true
                  | Acked | Finished -> false)
          in
          let outcome =
            Fun.protect ~finally:settle (fun () ->
                (* outside [lock]: the callback takes session locks *)
                Option.iter (fun f -> f ticket) on_start;
                let result =
                  Firewall.protect ~classify:Reach.classify (fun () ->
                      Verify.verify_partition ~cancel:ticket.cancel ~config
                        ~progress:(fun cells_done total ->
                          emit
                            (Protocol.Progress
                               { id = job.id; cells_done; total }))
                        sys cells)
                in
                match Cancel.reason ticket.cancel with
                | Some reason ->
                    (* the report (if any) is cancellation-truncated:
                       unknown-heavy, not what an uncancelled run would
                       answer — never memoized *)
                    `Cancelled reason
                | None -> (
                    match result with
                    | Ok report ->
                        Memo.store t.memo fp report;
                        `Report report
                    | Error failure ->
                        Metrics.incr m_errors;
                        `Failed failure))
          in
          (* a job whose cancel was acked already has its terminal
             event; emission happens outside [lock], which must stay
             innermost because emitters take session locks *)
          if !finished then
            match outcome with
            | `Report report -> emit (verdict Protocol.Run report)
            | `Cancelled reason ->
                Metrics.incr m_cancelled;
                emit (Protocol.Cancelled { id = job.id; reason })
            | `Failed failure ->
                emit
                  (Protocol.Job_error
                     { id = job.id; reason = Fail.to_string failure })))

let lookup t fp = Memo.peek t.memo fp

(* A table probe: pure in-memory hash lookups, no reachability, no
   queueing — answered on whatever domain asks.  The table itself is
   immutable after load, so no lock is involved. *)
let answer_lookup t ~id ~box ~cmd =
  Metrics.incr m_lookups;
  let status =
    match t.config.backreach with
    | None -> Protocol.Lookup_unavailable
    | Some table -> (
        match Nncs_backreach.Backreach.query table ~box ~cmd with
        | Nncs_backreach.Backreach.Unsafe { k } -> Protocol.Lookup_unsafe { k }
        | Nncs_backreach.Backreach.Safe -> Protocol.Lookup_safe
        | Nncs_backreach.Backreach.Out_of_domain -> Protocol.Lookup_out_of_domain)
  in
  Protocol.Lookup_result { id; status }

let stats_json t =
  let num_int n = J.Num (float_of_int n) in
  let cache_fields =
    match t.config.cache with
    | None -> []
    | Some c ->
        let cache = Cache.shared c in
        let s = Cache.stats cache in
        [
          ("cache_hits", num_int s.Cache.hits);
          ("cache_misses", num_int s.Cache.misses);
          ("cache_evictions", num_int s.Cache.evictions);
          ("cache_size", num_int s.Cache.size);
          ( "cache_shard_sizes",
            J.List
              (Array.to_list (Array.map num_int (Cache.shard_sizes cache))) );
        ]
  in
  let running_jobs = with_lock t (fun () -> Hashtbl.length t.live) in
  J.Obj
    ([
       ("jobs", num_int (Metrics.value m_jobs));
       ("errors", num_int (Metrics.value m_errors));
       ("cancelled_jobs", num_int (Metrics.value m_cancelled));
       ("shed_jobs", num_int (Metrics.value m_shed));
       ("running_jobs", num_int running_jobs);
       ("lookups", num_int (Metrics.value m_lookups));
       ("backreach_table", J.Bool (Option.is_some t.config.backreach));
       ("memo_entries", num_int (Memo.size t.memo));
       ( "memo_hits",
         num_int (Metrics.value (Metrics.counter "serve.memo_hits")) );
       ("memo_evictions", num_int (Memo.eviction_count t.memo));
       ("dispatchers", num_int t.config.dispatchers);
       ("host_cores", num_int (Domain.recommended_domain_count ()));
     ]
    @ cache_fields)

(* ----- the session loop ----- *)

(* A bounded line reader: [input_line] would buffer an arbitrarily long
   line in memory, so one hostile (or corrupt) client line could
   exhaust the process.  Reading char-by-char against the cap costs a
   branch per byte on OCaml's buffered channels — noise next to JSON
   parsing — and overflow discards the rest of the line so the session
   survives, answering [`Too_long] instead of dying. *)
let read_line_bounded ic max_bytes =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
        if Buffer.length buf = 0 then raise End_of_file
        else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
        if Buffer.length buf >= max_bytes then begin
          (try
             while input_char ic <> '\n' do
               ()
             done
           with End_of_file -> ());
          `Too_long
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
  in
  go ()

(* Session-side job states, keyed by job id under the session lock. *)
type jstate =
  | JQueued of bool ref  (* the queue item's dropped flag *)
  | JActive of ticket
  | JDone

type queue_item = { qi_job : Protocol.job; qi_dropped : bool ref }

let event_id = function
  | Protocol.Accepted { id; _ }
  | Protocol.Progress { id; _ }
  | Protocol.Verdict { id; _ }
  | Protocol.Cancelled { id; _ }
  | Protocol.Job_error { id; _ } ->
      Some id
  (* a lookup answer is not a job event: it must bypass the per-id
     single-terminal registry entirely, or a lookup reusing a finished
     job's id would be suppressed *)
  | Protocol.Lookup_result _ | Protocol.Stats_report _ | Protocol.Bye -> None

let is_terminal = function
  | Protocol.Verdict _ | Protocol.Cancelled _ | Protocol.Job_error _ -> true
  | _ -> false

let run t ic oc =
  let out_lock = Mutex.create () in
  (* set once the client stops reading (EPIPE/ECONNRESET surface as
     [Sys_error] when SIGPIPE is ignored).  Emits become no-ops instead
     of raising: a write failure escaping a dispatcher domain would be
     re-raised by [Domain.join] and take the whole server down, when the
     only thing lost is one session's event stream.  Jobs keep running —
     their verdicts still feed the memo for future sessions. *)
  let client_gone = ref false in
  let write_event ev =
    Mutex.lock out_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_lock)
      (fun () ->
        if not !client_gone then
          try
            output_string oc (J.to_string (Protocol.event_to_json ev));
            output_char oc '\n';
            flush oc
          with Sys_error _ -> client_gone := true)
  in
  let queue : queue_item Queue.t = Queue.create () in
  let qlock = Mutex.create () in
  let qcond = Condition.create () in
  let accepting = ref true in
  let registry : (string, jstate) Hashtbl.t = Hashtbl.create 32 in
  (* [queue]/[accepting]/[registry] are shared with the dispatcher
     domains but local to this call; every access goes through [qlock]
     below. *)
  let with_qlock f =
    Mutex.lock qlock;
    Fun.protect ~finally:(fun () -> Mutex.unlock qlock) f
  in
  (* The registry makes each job's event stream single-terminal: the
     first terminal event (verdict / cancelled / error) moves the id to
     [JDone] and is written; anything arriving for a [JDone] id — a
     memo verdict racing a cancel, progress of a just-cancelled run —
     is suppressed.  Events without a registered id (parse errors with
     [id = ""], cancel nacks) pass through. *)
  let emit ev =
    let write =
      match event_id ev with
      | Some id when id <> "" ->
          with_qlock (fun () ->
              match Hashtbl.find_opt registry id with
              | Some JDone -> false
              | Some _ | None ->
                  if is_terminal ev && Hashtbl.mem registry id then
                    Hashtbl.replace registry id JDone;
                  true)
      | _ -> true
    in
    if write then write_event ev
  in
  let enqueue (job : Protocol.job) =
    let action =
      with_qlock (fun () ->
          if job.Protocol.id = "" then `Reject "job id must be non-empty"
          else
            match Hashtbl.find_opt registry job.Protocol.id with
            | Some (JQueued _ | JActive _) ->
                (* like cancel nacks, the rejection carries an empty id:
                   emitting a terminal error under the original id would
                   mark it done and suppress the first job's verdict *)
                `Reject
                  (Printf.sprintf "duplicate job id %S still in flight"
                     job.Protocol.id)
            | Some JDone | None -> (
                match t.config.max_queue with
                | Some k when Queue.length queue >= k ->
                    Metrics.incr m_shed;
                    `Shed k
                | _ ->
                    let dropped = ref false in
                    Queue.add { qi_job = job; qi_dropped = dropped } queue;
                    Hashtbl.replace registry job.Protocol.id (JQueued dropped);
                    Condition.signal qcond;
                    `Queued))
    in
    match action with
    | `Queued -> ()
    | `Shed k ->
        emit
          (Protocol.Job_error
             {
               id = job.Protocol.id;
               reason = Printf.sprintf "overloaded: job queue is full (%d)" k;
             })
    | `Reject reason -> emit (Protocol.Job_error { id = ""; reason })
  in
  let handle_cancel id =
    let action =
      with_qlock (fun () ->
          match Hashtbl.find_opt registry id with
          | Some (JQueued dropped) when not !dropped ->
              dropped := true;
              `Queued
          | Some (JActive ticket) -> `Active ticket
          | Some (JQueued _) | Some JDone -> `Finished
          | None -> `Unknown)
    in
    let nack what =
      emit
        (Protocol.Job_error
           { id = ""; reason = Printf.sprintf "cancel %S: %s" id what })
    in
    match action with
    | `Queued ->
        Metrics.incr m_cancelled;
        emit (Protocol.Cancelled { id; reason = "cancelled while queued" })
    | `Active ticket ->
        if cancel_ticket t ticket ~reason:"cancelled by client" then
          emit (Protocol.Cancelled { id; reason = "cancelled by client" })
        else nack "job already finished"
    | `Finished -> nack "job already finished"
    | `Unknown -> nack "unknown job id"
  in
  let stop_accepting () =
    with_qlock (fun () ->
        accepting := false;
        Condition.broadcast qcond)
  in
  (* [None] only once the queue is drained AND no more jobs can arrive:
     queued work survives a shutdown request (graceful drain).  An item
     cancelled while queued is skipped here, under [qlock] like every
     other access to its dropped flag: its [cancelled] ack is already
     out. *)
  let dequeue () =
    with_qlock (fun () ->
        let rec wait () =
          match Queue.take_opt queue with
          | Some item when !(item.qi_dropped) -> wait ()
          | Some _ as next -> next
          | None when not !accepting -> None
          | None ->
              Condition.wait qcond qlock;
              wait ()
        in
        wait ())
  in
  let run_item item =
    submit t ~emit item.qi_job ~on_start:(fun ticket ->
        (* the job now has a run; record its ticket so a [cancel]
           request can reach it.  A cancel that raced the dispatch
           (dropped set between dequeue and here) is honoured by
           tripping the fresh ticket immediately. *)
        let dropped =
          with_qlock (fun () ->
              if !(item.qi_dropped) then true
              else begin
                (match Hashtbl.find_opt registry item.qi_job.Protocol.id with
                | Some (JQueued d) when d == item.qi_dropped ->
                    Hashtbl.replace registry item.qi_job.Protocol.id
                      (JActive ticket)
                | _ -> ());
                false
              end)
        in
        if dropped then
          ignore (cancel_ticket t ticket ~reason:"cancelled while queued"))
  in
  let rec dispatch () =
    match dequeue () with
    | None -> ()
    | Some item ->
        (try run_item item
         with e ->
           (* only genuinely fatal exceptions reach here — the firewall
              absorbs the rest inside [submit].  Give the job a terminal
              event before the domain dies so its client is not left
              hanging, then re-raise. *)
           (try
              emit
                (Protocol.Job_error
                   {
                     id = item.qi_job.Protocol.id;
                     reason = "dispatcher crashed: " ^ Printexc.to_string e;
                   })
            with _ -> ());
           raise e);
        dispatch ()
  in
  let dispatchers =
    Array.init t.config.dispatchers (fun _ -> Domain.spawn dispatch)
  in
  let outcome = ref `Eof in
  let continue = ref true in
  while !continue do
    match read_line_bounded ic t.config.max_line_bytes with
    | exception End_of_file -> continue := false
    (* a reset connection raises [Sys_error], not [End_of_file]; treat
       it the same so the drain/join/bye path still runs and no
       dispatcher domain is leaked *)
    | exception Sys_error _ -> continue := false
    | `Too_long ->
        emit
          (Protocol.Job_error
             {
               id = "";
               reason =
                 Printf.sprintf "request line exceeds %d bytes"
                   t.config.max_line_bytes;
             })
    | `Line line when String.trim line = "" -> ()
    | `Line line -> (
        match J.of_string line with
        | exception J.Parse_error msg ->
            emit
              (Protocol.Job_error { id = ""; reason = "parse error: " ^ msg })
        | request -> (
            match Protocol.request_of_json request with
            | Error reason ->
                let id =
                  match J.member "id" request with
                  | Some (J.Str id) -> id
                  | _ -> ""
                in
                emit (Protocol.Job_error { id; reason })
            | Ok (Protocol.Job job) -> enqueue job
            | Ok (Protocol.Lookup { id; box; cmd }) ->
                (* inline, ahead of the queue and every serving tier: a
                   table probe must stay cheap even while jobs run *)
                emit (answer_lookup t ~id ~box ~cmd)
            | Ok (Protocol.Cancel id) -> handle_cancel id
            | Ok Protocol.Stats -> emit (Protocol.Stats_report (stats_json t))
            | Ok Protocol.Shutdown ->
                outcome := `Shutdown;
                continue := false))
  done;
  stop_accepting ();
  Array.iter
    (fun d ->
      (* a fatal dispatcher crash is re-raised by [join]; absorbing it
         here keeps the drain going so the session still ends with a
         clean [bye] and no leaked domains *)
      try Domain.join d with _ -> ())
    dispatchers;
  (* recovery drain: if dispatchers died with items still queued, run
     them here; a crash here costs only the item it hit, so the drain
     goes on until the queue is empty *)
  let rec recover () = try dispatch () with _ -> recover () in
  recover ();
  (* every job this session accepted ran on its dispatchers or in the
     drain, or was answered inline (shed, dropped while queued, cancel
     acked), so each has had its terminal event by now *)
  emit Protocol.Bye;
  !outcome

let close t =
  Atomic.set t.stopping true;
  (match t.watchdog with
  | Some d ->
      Domain.join d;
      t.watchdog <- None
  | None -> ());
  Memo.close t.memo
