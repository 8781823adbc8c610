module J = Nncs_obs.Json
module Journal = Nncs_resilience.Journal
module Metrics = Nncs_obs.Metrics
module Verify = Nncs.Verify

let m_hits = Metrics.counter "serve.memo_hits"
let m_misses = Metrics.counter "serve.memo_misses"
let m_evictions = Metrics.counter "serve.memo_evictions"
let m_compactions = Metrics.counter "serve.memo_compactions"

(* Intrusive doubly-linked LRU list threaded through the entries, the
   same idiom as [Nncs_nnabs.Cache]: the sentinel's [next] is the most
   recently used entry, its [prev] the next eviction victim. *)
type entry = {
  e_fp : string;
  e_report : Verify.report;
  mutable prev : entry;
  mutable next : entry;
}

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  sentinel : entry;
  capacity : int option;
  path : string option;
  mutable writer : Journal.writer option;
  mutable journal_lines : int;
      (* lines in the journal file; grows past [Hashtbl.length table]
         as evictions and duplicates leave dead lines behind *)
  mutable evictions : int;
}

let dummy_report : Verify.report =
  {
    cells = [];
    coverage = 0.0;
    elapsed = 0.0;
    proved_cells = 0;
    unknown_cells = 0;
    total_cells = 0;
  }

let make_sentinel () =
  let rec sentinel =
    { e_fp = ""; e_report = dummy_report; prev = sentinel; next = sentinel }
  in
  sentinel

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  e.next <- t.sentinel.next;
  e.prev <- t.sentinel;
  t.sentinel.next.prev <- e;
  t.sentinel.next <- e

let record_to_json fp report =
  J.Obj
    [
      ("t", J.Str "verdict_memo");
      ("fingerprint", J.Str fp);
      ("report", Verify.report_to_json report);
    ]

(* Insert under the lock, evicting the LRU victim when at capacity.
   Returns [true] if [fp] was actually inserted (absent before). *)
let insert_locked t fp report =
  match Hashtbl.find_opt t.table fp with
  | Some _ -> false
  | None ->
      (match t.capacity with
      | Some cap when Hashtbl.length t.table >= cap ->
          let victim = t.sentinel.prev in
          if victim != t.sentinel then begin
            unlink victim;
            Hashtbl.remove t.table victim.e_fp;
            t.evictions <- t.evictions + 1;
            Metrics.incr m_evictions
          end
      | _ -> ());
      let e = { e_fp = fp; e_report = report; prev = t.sentinel; next = t.sentinel } in
      Hashtbl.replace t.table fp e;
      push_front t e;
      true

(* Rewrite the journal to exactly the live entries, oldest-to-newest so
   a replay reconstructs the same recency order, then reopen it for
   appending.  Called under the lock. *)
let compact_locked t =
  match (t.path, t.writer) with
  | Some p, Some w ->
      Journal.close w;
      t.writer <- None;
      let tmp = p ^ ".compact.tmp" in
      Journal.with_writer ~append:false tmp (fun w' ->
          let e = ref t.sentinel.prev in
          while !e != t.sentinel do
            Journal.write w' (record_to_json !e.e_fp !e.e_report);
            e := !e.prev
          done);
      Sys.rename tmp p;
      t.writer <- Some (Journal.create ~append:true p);
      t.journal_lines <- Hashtbl.length t.table;
      Metrics.incr m_compactions
  | _ -> ()

(* Dead lines (evicted or superseded entries) are tolerated until they
   dominate the file: compaction runs when the journal exceeds four
   times the live size. *)
let maybe_compact_locked t =
  if
    Option.is_some t.writer
    && t.journal_lines > 4 * max 1 (Hashtbl.length t.table)
  then compact_locked t

(* Replay tolerates individual bad records, not just bad lines: a
   journal written by a newer/older build whose report schema moved
   simply contributes nothing for that entry, and the server recomputes
   on demand.  Replay routes through the same bounded insert as live
   stores, so a journal longer than the capacity keeps only the newest
   [capacity] entries. *)
let replay t path =
  t.journal_lines <-
    Journal.fold path ~init:0 (fun lines j ->
        (match (J.member "t" j, J.member "fingerprint" j, J.member "report" j) with
        | Some (J.Str "verdict_memo"), Some (J.Str fp), Some r -> (
            match Verify.report_of_json r with
            | report ->
                (* last record wins: journals are append-ordered, so the
                   later record is the newer one *)
                (match Hashtbl.find_opt t.table fp with
                | Some e ->
                    unlink e;
                    Hashtbl.remove t.table fp
                | None -> ());
                ignore (insert_locked t fp report)
            (* not only [Parse_error]: a corrupt record can fail deeper
               down, e.g. [Invalid_argument] from box bounds with
               [lo > hi].  Only genuinely fatal exceptions abort
               startup. *)
            | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) ->
                raise e
            | exception e ->
                Printf.eprintf
                  "warning: memo %s: skipping unreadable report for %s (%s)\n%!"
                  path fp (Printexc.to_string e))
        | _ -> ());
        lines + 1)

let create ?path ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Memo.create: non-positive capacity"
  | _ -> ());
  let t =
    {
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      sentinel = make_sentinel ();
      capacity;
      path;
      writer = None;
      journal_lines = 0;
      evictions = 0;
    }
  in
  (match path with
  | None -> ()
  | Some p ->
      if Sys.file_exists p then replay t p;
      t.writer <- Some (Journal.create ~append:true p);
      (* a bloated journal (heavy eviction or duplicate churn in a past
         life) is rewritten once at startup rather than re-replayed in
         full on every restart *)
      maybe_compact_locked t);
  t

let find t fp =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table fp with
      | Some e ->
          Metrics.incr m_hits;
          unlink e;
          push_front t e;
          Some e.e_report
      | None ->
          Metrics.incr m_misses;
          None)

let peek t fp =
  with_lock t (fun () ->
      Option.map (fun e -> e.e_report) (Hashtbl.find_opt t.table fp))

let store t fp report =
  with_lock t (fun () ->
      if insert_locked t fp report then begin
        (match t.writer with
        | Some w ->
            Journal.write w (record_to_json fp report);
            t.journal_lines <- t.journal_lines + 1
        | None -> ());
        maybe_compact_locked t
      end)

let size t = with_lock t (fun () -> Hashtbl.length t.table)
let eviction_count t = with_lock t (fun () -> t.evictions)

let close t =
  with_lock t (fun () ->
      (* leave a dead-line-free file behind: the next replay then costs
         exactly one parse per live entry *)
      if t.journal_lines > Hashtbl.length t.table then compact_locked t;
      match t.writer with
      | Some w ->
          Journal.close w;
          t.writer <- None
      | None -> ())
