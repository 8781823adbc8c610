(* The resident verification server for the ACAS Xu scenario: reads
   JSONL jobs from stdin (or a Unix-domain socket), answers each from
   the fingerprint-keyed verdict memo or a reachability run that shares
   the process-wide sharded F# cache, and streams JSONL events back.
   See DESIGN.md §12–13 for the protocol.

   Example session (tiny models):
     $ dune exec bin/nncs_serve.exe -- --dir /tmp/nets --tiny-models <<'EOF'
     {"t":"job","id":"q1","partition":{"arcs":12,"headings":4,"arc_indices":[6]}}
     {"t":"job","id":"q2","partition":{"arcs":12,"headings":4,"arc_indices":[6]}}
     {"t":"stats"}
     {"t":"shutdown"}
     EOF
   q2 is answered from the memo ("source":"memo") without re-running
   the analysis.

   SIGTERM/SIGINT trigger the same graceful drain as a shutdown
   request: stop accepting input, finish queued jobs, emit a final bye,
   compact and close the memo journal.  The handler closes the fds the
   reader blocks on, so the session loop's own end-of-input path does
   the draining — no second shutdown mechanism. *)

module S = Nncs_acasxu.Scenario
module T = Nncs_acasxu.Training
module Server = Nncs_serve.Server

(* ----- signal-driven graceful drain -----

   All registration happens on the main domain, which is also where
   OCaml runs signal handlers, so plain refs suffice.  The handler
   closes every registered "wake" fd: a reader blocked on one restarts
   its syscall after the handler and immediately fails on the closed
   fd, funnelling into the session loop's EOF/error drain path. *)

let draining = Atomic.make false
let wake_fds : Unix.file_descr list ref = ref []

let close_wake_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let register_wake_fd fd =
  wake_fds := fd :: !wake_fds;
  (* the signal may have landed between the two lines above; closing
     here (idempotent) keeps the drain from missing this fd *)
  if Atomic.get draining then close_wake_fd fd

let unregister_wake_fd fd = wake_fds := List.filter (fun f -> f != fd) !wake_fds

let drain_on_signal _ =
  Atomic.set draining true;
  let fds = !wake_fds in
  wake_fds := [];
  List.iter close_wake_fd fds

let install_signal_handlers () =
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle drain_on_signal)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let serve_stdio server =
  register_wake_fd Unix.stdin;
  ignore (Server.run server stdin stdout)

let serve_socket server path quiet =
  if Sys.file_exists path then Sys.remove path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  register_wake_fd sock;
  Fun.protect
    ~finally:(fun () ->
      unregister_wake_fd sock;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      if not quiet then Printf.eprintf "nncs_serve: listening on %s\n%!" path;
      (* one connection at a time: jobs within a session already overlap
         via the dispatcher domains, and verdict memo + abstraction
         cache persist across sessions *)
      let rec loop () =
        match Unix.accept sock with
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            if not (Atomic.get draining) then loop ()
        | exception Unix.Unix_error _ when Atomic.get draining ->
            (* the handler closed the listen socket out from under us:
               that is the drain, not an error *)
            ()
        | fd, _ ->
            register_wake_fd fd;
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            (* one broken client must only end its own session, never
               the accept loop; the channels are closed on every path *)
            let outcome =
              Fun.protect
                ~finally:(fun () ->
                  unregister_wake_fd fd;
                  close_out_noerr oc;
                  (* close_out already closed the underlying fd; a
                     second close only matters if the flush path bailed
                     early *)
                  try Unix.close fd with Unix.Unix_error _ -> ())
                (fun () ->
                  try Server.run server ic oc
                  with e ->
                    if not quiet then
                      Printf.eprintf "nncs_serve: session error: %s\n%!"
                        (Printexc.to_string e);
                    `Eof)
            in
            (match outcome with
            | `Shutdown ->
                if not quiet then Printf.eprintf "nncs_serve: shutdown\n%!"
            | `Eof -> if not (Atomic.get draining) then loop ())
      in
      loop ();
      if Atomic.get draining && not quiet then
        Printf.eprintf "nncs_serve: drained on signal\n%!")

let run dir tiny dispatchers abs_cache memo memo_capacity
    max_queue max_line_bytes job_deadline backreach_table socket quiet =
  (* a client that disconnects mid-stream must not kill the resident
     server: with SIGPIPE ignored, writes to a dead peer raise
     [Sys_error], which the session loop absorbs *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  install_signal_handlers ();
  let _, networks =
    if tiny then
      T.load_or_train ~spec:T.tiny_spec ~policy_config:T.tiny_policy_config
        ~dir ()
    else T.load_or_train ~dir ()
  in
  let make_system ~domain ~nn_splits = S.system ~networks ~domain ~nn_splits () in
  let make_cells ~arcs ~headings ~arc_indices =
    let arc_indices = match arc_indices with [] -> None | l -> Some l in
    List.map snd (S.initial_cells ~arcs ~headings ?arc_indices ())
  in
  let pos_opt n = if n <= 0 then None else Some n in
  let backreach =
    match backreach_table with
    | None -> None
    | Some path -> (
        match Nncs_backreach.Backreach.load path with
        | Ok table ->
            if not quiet then
              Printf.eprintf "nncs_serve: backreach table %s (%d unsafe)\n%!"
                path
                (Nncs_backreach.Backreach.num_unsafe table);
            Some table
        | Error reason ->
            Printf.eprintf "nncs_serve: cannot load backreach table %s: %s\n%!"
              path
              (Nncs_backreach.Backreach.load_error_to_string reason);
            exit 2)
  in
  let config =
    {
      Server.dispatchers;
      cache =
        (if abs_cache <= 0 then None
         else
           Some
             { Nncs_nnabs.Cache.default_config with capacity = abs_cache });
      memo_path = memo;
      memo_capacity = pos_opt memo_capacity;
      max_queue = pos_opt max_queue;
      max_line_bytes;
      job_deadline_s = (if job_deadline <= 0.0 then None else Some job_deadline);
      backreach;
    }
  in
  let server = Server.create config ~make_system ~make_cells in
  Fun.protect
    ~finally:(fun () -> Server.close server)
    (fun () ->
      match socket with
      | None -> serve_stdio server
      | Some path -> serve_socket server path quiet);
  0

open Cmdliner

let dir =
  Arg.(value & opt string "data" & info [ "dir" ] ~doc:"Network cache directory.")

let tiny =
  Arg.(
    value & flag
    & info [ "tiny-models" ]
        ~doc:"Train deliberately tiny policy tables and networks (CI \
              smoke tests; verdicts are meaningless).")

let dispatchers =
  Arg.(
    value & opt int 1
    & info [ "dispatchers" ]
        ~doc:"Concurrent jobs; each job may additionally run with its \
              own per-job $(b,workers) domains.")

let abs_cache =
  Arg.(
    value & opt int 65536
    & info [ "abs-cache" ]
        ~doc:"Process-wide F# memo table capacity (entries), shared by \
              every job and dispatcher; 0 disables caching.")

let memo =
  Arg.(
    value
    & opt (some string) None
    & info [ "memo" ]
        ~doc:"Back the fingerprint-keyed verdict memo with this JSONL \
              journal: replayed on startup, appended on every new \
              verdict, compacted when evictions bloat it.  Only valid \
              for one network set.")

let memo_capacity =
  Arg.(
    value & opt int 0
    & info [ "memo-capacity" ]
        ~doc:"Bound the verdict memo to this many entries (LRU \
              eviction); 0 means unbounded.")

let max_queue =
  Arg.(
    value & opt int 0
    & info [ "max-queue" ]
        ~doc:"Shed jobs with an overloaded error once this many are \
              queued in a session; 0 means unbounded.")

let max_line_bytes =
  Arg.(
    value
    & opt int Server.default_config.Server.max_line_bytes
    & info [ "max-line-bytes" ]
        ~doc:"Discard request lines longer than this many bytes with an \
              error event instead of buffering them.")

let job_deadline =
  Arg.(
    value & opt float 0.0
    & info [ "job-deadline" ]
        ~doc:"Cancel any job still running after this many seconds \
              (server-side straggler watchdog); 0 disables it.")

let backreach_table =
  Arg.(
    value
    & opt (some string) None
    & info [ "backreach-table" ]
        ~doc:"Load a quantized backreachability table, the build \
              journal written by $(b,acasxu_verify --backreach-table), \
              and answer lookup requests from it, ahead of every other \
              tier.  An unfinished or unreadable journal exits with code \
              2.  Only valid for the network set this server runs.")

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ]
        ~doc:"Listen on this Unix-domain socket instead of stdin/stdout \
              (one JSONL session per connection; a shutdown request \
              stops the server, end-of-stream only ends the session).")

let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No startup banner.")

let cmd =
  Cmd.v
    (Cmd.info "nncs_serve"
       ~doc:"Resident multi-query verification server for the ACAS Xu \
             closed loop")
    Term.(
      const run $ dir $ tiny $ dispatchers $ abs_cache $ memo
      $ memo_capacity $ max_queue $ max_line_bytes $ job_deadline
      $ backreach_table $ socket $ quiet)

let () = exit (Cmd.eval' cmd)
