(* The typedtree front-end: compile each .ml through compiler-libs with
   the project's include paths, replicating dune's unit naming, so the
   rules see resolved paths and principal types instead of surface
   syntax.

   How a file is placed in the build:

   - The repo root is the nearest ancestor of the cwd containing
     `dune-project`.  Run from a checkout that is the source root; run
     from `_build/default/test` (the test harness) it is the build root
     itself — both layouts carry the `dune` files this module reads.
   - Include paths are every `.objs/byte` / `.eobjs/byte` directory
     under the build root (dune's per-library and per-executable cmi
     dirs), plus the stdlib's unix/threads/compiler-libs subdirs and the
     opam-installed cmdliner/fmt used by bin/.  The tree must have been
     built (`dune build`) or typechecking reports missing-cmi failures.
   - Unit naming replicates dune: a file `lib/foo/bar.ml` in a library
     `(name nncs_foo)` typechecks as unit `Nncs_foo__Bar` with
     `-open Nncs_foo` (the generated alias module), so sibling modules
     resolve exactly as in the real build; `bin/baz.ml` typechecks as
     `Dune__exe__Baz`.

   CONCURRENCY: compiler-libs is a thicket of global mutable state
   (Load_path, Env caches, type-variable levels, abbreviation memos) and
   is NOT domain-safe, and the rules walk reads types through the same
   memo tables.  That is why [Driver.run] lints files in order on one
   domain. *)

type unit_info = { unit_name : string; opens : string list }

type error_kind = Parse_error | Type_error
type error = { kind : error_kind; msg : string; line : int }

(* ----- repo layout discovery ----- *)

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

(* every dune cmi dir under [dir]: .objs/byte and .eobjs/byte *)
let rec collect_obj_dirs acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.fold_left
        (fun acc name ->
          let p = Filename.concat dir name in
          if (not (Sys.file_exists p)) || not (Sys.is_directory p) then acc
          else if name = "byte" && Filename.check_suffix dir "objs" then
            p :: acc
          else if name = ".git" then acc
          else collect_obj_dirs acc p)
        acc entries

type layout = {
  root : string;        (* where linted paths are resolved against *)
  build_root : string;  (* where the cmi dirs live *)
}

let layout : (layout, string) result option Atomic.t = Atomic.make None

(* Initialize Load_path/Clflags once.  Returns the discovered layout,
   or an error message when no dune-project is in sight.  The memo cell
   is an Atomic because R3 forbids a bare top-level ref under lib/. *)
let init () =
  match Atomic.get layout with
  | Some (Ok l) -> Ok l
  | Some (Error e) -> Error e
  | None ->
      let r =
        match find_root (Sys.getcwd ()) with
        | None ->
            Error
              "no dune-project above the current directory: run from the \
               repo root"
        | Some root ->
            let candidate =
              Filename.concat (Filename.concat root "_build") "default"
            in
            let build_root =
              if Sys.file_exists candidate && Sys.is_directory candidate then
                candidate
              else root
            in
            let obj_dirs = collect_obj_dirs [] build_root in
            let stdlib = Config.standard_library in
            let opamlib = Filename.dirname stdlib in
            let extra =
              List.filter Sys.file_exists
                [
                  Filename.concat stdlib "unix";
                  Filename.concat stdlib "threads";
                  Filename.concat stdlib "compiler-libs";
                  Filename.concat opamlib "cmdliner";
                  Filename.concat opamlib "fmt";
                ]
            in
            Clflags.include_dirs := obj_dirs @ extra;
            (* the linter only reads cmis; never let the typer write *)
            Clflags.dont_write_files := true;
            ignore (Warnings.parse_options false "-a");
            Compmisc.init_path ();
            Ok { root; build_root }
      in
      ignore (Atomic.compare_and_set layout None (Some r));
      r

(* ----- dune-file unit naming ----- *)

(* first "(name X)" token in a dune file; enough for this repo's
   one-stanza library dune files *)
let stanza_name content =
  let tag = "(name " in
  let rec find i =
    match String.index_from_opt content i '(' with
    | None -> None
    | Some j ->
        if
          j + String.length tag <= String.length content
          && String.sub content j (String.length tag) = tag
        then
          let start = j + String.length tag in
          let stop = ref start in
          while
            !stop < String.length content
            && not
                 (content.[!stop] = ')'
                 || content.[!stop] = ' '
                 || content.[!stop] = '\n')
          do
            incr stop
          done;
          Some (String.sub content start (!stop - start))
        else find (j + 1)
  in
  find 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* dune unit naming for the file at (repo-relative) [path].  Looks for
   the `dune` file next to it under the source root, then the build
   root, so fixture files linted under fake repo paths resolve too. *)
let unit_info_for l path =
  let base =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
  in
  let dir = Filename.dirname path in
  let dune_content =
    List.find_map
      (fun root ->
        let p = Filename.concat (Filename.concat root dir) "dune" in
        if Sys.file_exists p then Some (read_file p) else None)
      [ l.root; l.build_root ]
  in
  match dune_content with
  | None -> { unit_name = base; opens = [] }
  | Some content ->
      if contains_sub content "(executable" then
        { unit_name = "Dune__exe__" ^ base; opens = [] }
      else (
        match stanza_name content with
        | Some lib ->
            let prefix = String.capitalize_ascii lib in
            if prefix = base then { unit_name = base; opens = [] }
            else
              { unit_name = prefix ^ "__" ^ base; opens = [ prefix ] }
        | None -> { unit_name = base; opens = [] })

(* ----- the typecheck ----- *)

let error_of_exn kind e =
  match Location.error_of_exn e with
  | Some (`Ok report) ->
      let line =
        report.Location.main.Location.loc.Location.loc_start.Lexing.pos_lnum
      in
      let msg =
        Format.asprintf "%a" Location.print_report report |> String.trim
      in
      { kind; msg; line = max 1 line }
  | _ ->
      {
        kind;
        msg =
          Printf.sprintf
            "%s (is the tree built? the typed linter reads cmis from \
             _build — run `dune build` first)"
            (Printexc.to_string e);
        line = 1;
      }

(* Parse and typecheck [source] as if it were the file at [path]. *)
let typecheck ~path source : (Typedtree.structure * unit_info, error) result =
  match init () with
  | Error msg -> Error { kind = Type_error; msg; line = 1 }
  | Ok l -> (
      let info = unit_info_for l path in
      match
        let lexbuf = Lexing.from_string source in
        Lexing.set_filename lexbuf path;
        Parse.implementation lexbuf
      with
      | exception e -> Error (error_of_exn Parse_error e)
      | ast -> (
          match
            (* fresh persistent-structure cache per file: a unit
               imported while checking a sibling may be the *current*
               unit of the next file, and stale entries would alias it *)
            Env.reset_cache ();
            Env.set_unit_name info.unit_name;
            Clflags.open_modules := info.opens;
            let env = Compmisc.initial_env () in
            Typemod.type_structure env ast
          with
          | tstr, _sig, _names, _shape, _env -> Ok (tstr, info)
          | exception e -> Error (error_of_exn Type_error e)))
