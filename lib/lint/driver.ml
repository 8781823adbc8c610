(* File discovery + the run pipeline.

   Per file: read the source, then typecheck it and walk the rules over
   the typedtree, giving per-file findings and cross-file facts.  Files
   run in order on the calling domain (Typing says why).  After all
   files: [finalize] matches guarded accesses to foreign globals against
   every file's [@@lint.guarded_by] declarations and folds the per-file
   lock-acquisition edges into a global lock-order graph, reporting each
   cycle (deadlock risk) once.

   A file that fails to parse or typecheck yields a P1 finding rather
   than being skipped silently (type-failure usually means the tree was
   not built first). *)

type file_entry = {
  fe_findings : Finding.t list;
  fe_edges : Rules.edge list;
  fe_guards : Rules.guard_decl list;
  fe_ext : Rules.ext_access list;
}

type report = {
  files : string list;  (* every .ml linted, in the order linted *)
  findings : Finding.t list;
}

let failure_finding ~path (e : Typing.error) =
  let rule, detail, what =
    match e.kind with
    | Typing.Parse_error -> (Finding.Parse_failure, "parse", "parse")
    | Typing.Type_error -> (Finding.Type_failure, "typecheck", "typecheck")
  in
  {
    Finding.rule;
    file = path;
    line = e.line;
    col = 0;
    binding = "";
    detail;
    message = Printf.sprintf "could not %s file: %s" what e.msg;
  }

let failure_entry ~path e =
  {
    fe_findings = [ failure_finding ~path e ];
    fe_edges = [];
    fe_guards = [];
    fe_ext = [];
  }

let process_source ~path source =
  match Typing.typecheck ~path source with
  | Ok (tstr, info) ->
      let unit_display = Rules.strip_mangle info.unit_name in
      let r = Rules.check ~file:path ~unit_display tstr in
      {
        fe_findings = r.Rules.findings;
        fe_edges = r.Rules.edges;
        fe_guards = r.Rules.guards;
        fe_ext = r.Rules.ext;
      }
  | Error e -> failure_entry ~path e

(* ----- cross-file analysis ----- *)

(* Tarjan SCC over the lock graph; every SCC of size > 1, and every
   self-edge, is a lock-order cycle. *)
let strongly_connected nodes succs =
  let index = Hashtbl.create 16 in
  let low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  !sccs

let cycle_findings entries =
  let edges =
    List.concat_map (fun en -> en.fe_edges) entries
    |> List.filter (fun (e : Rules.edge) ->
           e.Rules.e_from <> "?" && e.Rules.e_to <> "?")
  in
  let nodes =
    List.concat_map (fun (e : Rules.edge) -> [ e.Rules.e_from; e.Rules.e_to ]) edges
    |> List.sort_uniq compare
  in
  let succs v =
    List.filter_map
      (fun (e : Rules.edge) ->
        if e.Rules.e_from = v then Some e.Rules.e_to else None)
      edges
    |> List.sort_uniq compare
  in
  let sccs = strongly_connected nodes succs in
  let cyclic =
    List.filter_map
      (fun scc ->
        match scc with
        | [ v ] ->
            if
              List.exists
                (fun (e : Rules.edge) ->
                  e.Rules.e_from = v && e.Rules.e_to = v)
                edges
            then Some [ v ]
            else None
        | _ :: _ :: _ -> Some (List.sort compare scc)
        | [] -> None)
      sccs
  in
  List.map
    (fun cycle ->
      let members = List.sort_uniq compare cycle in
      let in_cycle e =
        List.mem e.Rules.e_from members && List.mem e.Rules.e_to members
      in
      let cycle_edges =
        List.filter in_cycle edges
        |> List.sort (fun (a : Rules.edge) b ->
               compare
                 (a.Rules.e_file, a.Rules.e_line, a.Rules.e_col)
                 (b.Rules.e_file, b.Rules.e_line, b.Rules.e_col))
      in
      let rep = List.hd cycle_edges in
      let detail = "cycle:" ^ String.concat "->" members in
      let sites =
        List.map
          (fun (e : Rules.edge) ->
            Printf.sprintf "%s->%s at %s:%d" e.Rules.e_from e.Rules.e_to
              e.Rules.e_file e.Rules.e_line)
          cycle_edges
        |> String.concat "; "
      in
      {
        Finding.rule = Finding.R5_lock_order;
        file = rep.Rules.e_file;
        line = rep.Rules.e_line;
        col = rep.Rules.e_col;
        binding = rep.Rules.e_binding;
        detail;
        message =
          Printf.sprintf
            "lock-acquisition-order cycle between {%s} (deadlock risk): \
             %s; pick one acquisition order and annotate the deliberate \
             exception with [@lint.allow \"r5-lock-order reason\"]"
            (String.concat ", " members)
            sites;
      })
    cyclic

let cross_guard_findings entries =
  let guards = Hashtbl.create 16 in
  List.iter
    (fun en ->
      List.iter
        (fun (g : Rules.guard_decl) ->
          Hashtbl.replace guards g.Rules.g_canon g.Rules.g_guard)
        en.fe_guards)
    entries;
  List.concat_map
    (fun en ->
      List.filter_map
        (fun (x : Rules.ext_access) ->
          match Hashtbl.find_opt guards x.Rules.x_canon with
          | Some g when not (Rules.held_satisfies g x.Rules.x_held) ->
              Some
                {
                  Finding.rule = Finding.R5_guarded_by;
                  file = x.Rules.x_file;
                  line = x.Rules.x_line;
                  col = x.Rules.x_col;
                  binding = x.Rules.x_binding;
                  detail =
                    Rules.last_segment x.Rules.x_canon ^ " guard=" ^ g;
                  message =
                    Printf.sprintf
                      "access to `%s` outside its declared lock `%s` \
                       ([@@lint.guarded_by] in the defining module): take \
                       the lock around this access, or annotate \
                       [@lint.allow \"r5-guarded-by reason\"]"
                      x.Rules.x_display g;
                }
          | _ -> None)
        en.fe_ext)
    entries

let finalize entries =
  List.concat_map (fun en -> en.fe_findings) entries
  @ cross_guard_findings entries
  @ cycle_findings entries
  |> List.sort Finding.compare_loc

(* ----- entry points ----- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* every .ml under the roots, skipping _build/.git/other tool dirs *)
let collect_ml_files roots =
  let skip_dir name =
    String.length name > 0 && (name.[0] = '_' || name.[0] = '.')
  in
  let rec go acc path =
    if Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.sort compare
      |> List.fold_left
           (fun acc name ->
             if skip_dir name then acc
             else go acc (Filename.concat path name))
           acc
    else if Filename.check_suffix path ".ml" then path :: acc
    else acc
  in
  List.rev (List.fold_left go [] roots)

let expand_paths paths =
  List.concat_map
    (fun p ->
      if Sys.file_exists p && Sys.is_directory p then collect_ml_files [ p ]
      else [ p ])
    paths

let process_file path =
  match read_file path with
  | source -> process_source ~path source
  | exception Sys_error msg ->
      failure_entry ~path { Typing.kind = Typing.Parse_error; msg; line = 1 }

let run paths =
  let files = expand_paths paths in
  { files; findings = finalize (List.map process_file files) }

let lint_source ~path source = finalize [ process_source ~path source ]

(* lint in-memory sources as one tree: cross-module guard checks and
   the lock-order graph span all of them (the test gate uses this to
   lint the copied lib/ + bin/ sources under their repo paths) *)
let lint_sources pairs =
  finalize (List.map (fun (path, source) -> process_source ~path source) pairs)
