module Json = Nncs_obs.Json

(* [closed] is guarded by [mutex], like the channel itself: a close
   racing a concurrent write must not slam the channel shut mid-line
   (the write would raise on the closed descriptor and escape the
   verdict boundary).  After [close], further writes are no-ops — the
   shutdown path may cross a worker still journaling its last record,
   and losing that record is the documented crash-loss contract
   anyway. *)
type writer = { oc : out_channel; mutex : Mutex.t; mutable closed : bool }

let create ?(append = false) path =
  let flags =
    if append then [ Open_wronly; Open_creat; Open_append ]
    else [ Open_wronly; Open_creat; Open_trunc ]
  in
  { oc = open_out_gen flags 0o644 path; mutex = Mutex.create (); closed = false }

let write w j =
  Mutex.lock w.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.mutex)
    (fun () ->
      if not w.closed then begin
        output_string w.oc (Json.to_string j);
        output_char w.oc '\n';
        flush w.oc
      end)

let close w =
  Mutex.lock w.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.mutex)
    (fun () ->
      if not w.closed then begin
        w.closed <- true;
        close_out w.oc
      end)

let with_writer ?append path f =
  let w = create ?append path in
  Fun.protect ~finally:(fun () -> close w) (fun () -> f w)

let fold ?on_malformed path ~init f =
  let warn =
    match on_malformed with
    | Some f -> f
    | None ->
        fun ~line reason ->
          Printf.eprintf "warning: journal %s: skipping malformed line %d (%s)\n%!"
            path line reason
  in
  (* A server appending continuously can crash mid-line and then keep
     appending complete records after the torn one on restart, so a
     malformed line is a recoverable event *anywhere*, not only at the
     tail: skip it with a warning and keep every parseable record.
     Blank lines (the newline of the last complete record) are silently
     ignored.  Each line is parsed and folded as it streams in, so a
     long journal is never held in memory, as lines or as records. *)
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go line acc =
        match input_line ic with
        | exception End_of_file -> acc
        | l when String.trim l = "" -> go (line + 1) acc
        | l -> (
            match Json.of_string l with
            | j -> go (line + 1) (f acc j)
            | exception Json.Parse_error reason ->
                warn ~line reason;
                go (line + 1) acc)
      in
      go 1 init)

let load ?on_malformed path =
  List.rev (fold ?on_malformed path ~init:[] (fun acc j -> j :: acc))
