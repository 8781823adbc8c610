(* The rule engine: a Typedtree walk (compiler-libs Tast_iterator) with
   a mutable context carrying the active suppression set, the enclosing
   top-level binding, and the set of locks held on the current lexical
   path.

   Everything here runs on *typed* ASTs produced by Typing.typecheck,
   so identifier classification uses resolved paths (shadowing is the
   typer's problem) and R2/R4 read principal types instead of
   "looks like a float" heuristics.

   Lock-region model (R5): a lock is "held" inside

   - the rest of a [Texp_sequence] chain after [Mutex.lock m] (until a
     matching [Mutex.unlock m] element),
   - the thunk of [Mutex.protect m f], and
   - literal function arguments of a *lock wrapper*: a same-file
     function whose body immediately takes a lock (the repo's
     [with_lock sh] / [with_registry] idioms), inferred in a pre-pass.

   The model is lexical and over-approximates into nested lambdas (the
   [Fun.protect] thunk idiom depends on it); closures that escape their
   locked region and run elsewhere are misattributed — a documented
   limit (DESIGN.md §15).  Cross-file facts (lock-order edges, guard
   declarations, accesses to foreign globals) are returned to the
   driver, which builds the global lock graph and checks cross-module
   guarded accesses after all files are walked. *)

open Typedtree

(* ----- display names: strip dune's unit mangling ----- *)

let strip_mangle comp =
  let n = String.length comp in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if comp.[i] = '_' && comp.[i + 1] = '_' then last_sep (i + 2) (i + 2)
    else last_sep (i + 1) best
  in
  match last_sep 0 (-1) with
  | -1 -> comp
  | j when j < n -> String.sub comp j (n - j)
  | _ -> comp

let display_path p =
  Path.name p |> String.split_on_char '.' |> List.map strip_mangle
  |> String.concat "."

let last_segment s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* ----- cross-file facts ----- *)

type lock = { canon : string; aliases : string list }

type edge = {
  e_from : string;
  e_to : string;
  e_file : string;
  e_line : int;
  e_col : int;
  e_binding : string;
}

type guard_decl = { g_canon : string; g_guard : string }

type ext_access = {
  x_canon : string;
  x_display : string;
  x_file : string;
  x_line : int;
  x_col : int;
  x_binding : string;
  x_held : lock list;
}

type result_ = {
  findings : Finding.t list;
  edges : edge list;
  guards : guard_decl list;
  ext : ext_access list;
}

(* guard annotation "m" / "Memo.lock" matches a held lock if it equals
   one of its aliases or its dotted segments are a suffix of the lock's
   canonical key *)
let guard_matches guard lk =
  List.mem guard lk.aliases
  ||
  let gs = String.split_on_char '.' guard in
  let cs = String.split_on_char '.' lk.canon in
  let rec suffix xs ys =
    List.length ys >= List.length xs
    &&
    match ys with
    | [] -> xs = []
    | _ :: tl -> xs = ys || suffix xs tl
  in
  suffix gs cs

let held_satisfies guard held = List.exists (guard_matches guard) held

(* ----- context ----- *)

type wspec =
  | W_global of lock
  | W_param of int * (string * string) option  (* (field canon, field name) *)

type ctx = {
  file : string;
  unit_display : string;
  r1_active : bool;
  r3_active : bool;
  conc_active : bool;
  mutable binding : string;
  mutable sup : Suppress.t;
  mutable static : bool;
  mutable held : lock list;
  toplevels : (Ident.t, string) Hashtbl.t;  (* toplevel value -> canon *)
  guards_by_ident : (Ident.t, string) Hashtbl.t;
  field_guards : (string, string) Hashtbl.t;  (* "Type.label" canon -> guard *)
  wrappers : (Ident.t, wspec) Hashtbl.t;
  (* per-top-level-binding R6/R3 state *)
  mutable atomic_gets : (string * Location.t) list;
  (* key, site, suppressions in scope, no-lock-held at the set *)
  mutable atomic_sets : (string * Location.t * Suppress.t * bool) list;
  mutable atomic_rmw : string list;
  mutable mutex_locks : Location.t list;
  mutable mutex_protected : bool;
  (* accumulated results *)
  mutable findings : Finding.t list;
  mutable edges : edge list;
  mutable guard_decls : guard_decl list;
  mutable ext : ext_access list;
}

let loc_pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let report ?sup ctx rule loc detail message =
  let sup = Option.value sup ~default:ctx.sup in
  let id = Finding.rule_id rule in
  if not (Suppress.allows sup id) then
    let line, col = loc_pos loc in
    ctx.findings <-
      {
        Finding.rule;
        file = ctx.file;
        line;
        col;
        binding = ctx.binding;
        detail;
        message;
      }
      :: ctx.findings

(* ----- typed classification helpers ----- *)

let head_desc env ty =
  match Ctype.expand_head env ty with
  | ty -> Some (Types.get_desc ty)
  | exception _ -> None

let type_head_path env ty =
  match head_desc env ty with
  | Some (Types.Tconstr (p, _, _)) -> Some p
  | _ -> None

let is_float_expr e =
  match type_head_path e.exp_env e.exp_type with
  | Some p -> Path.same p Predef.path_float
  | None -> false

(* a tuple with a float component compares NaN-hazardously too *)
let floatish_expr e =
  is_float_expr e
  ||
  match head_desc e.exp_env e.exp_type with
  | Some (Types.Ttuple tys) ->
      List.exists
        (fun ty ->
          match type_head_path e.exp_env ty with
          | Some p -> Path.same p Predef.path_float
          | None -> false)
        tys
  | _ -> false

let abstract_module_of_expr e =
  match type_head_path e.exp_env e.exp_type with
  | Some p -> (
      match List.rev (String.split_on_char '.' (display_path p)) with
      | _ :: m :: _ when List.mem m Policy.abstract_modules -> Some m
      | [ m ] when List.mem m Policy.abstract_modules -> Some m
      | _ -> None)
  | None -> None

(* Type-constructor paths normalize to the defining unit
   (Stdlib__Atomic.t, not the surface Stdlib.Atomic.t), so compare
   display names with the Stdlib prefix stripped: "Atomic.t",
   "Hashtbl.t", "ref". *)
let norm_type_name p =
  let d = display_path p in
  match String.index_opt d '.' with
  | Some 6 when String.sub d 0 6 = "Stdlib" ->
      String.sub d 7 (String.length d - 7)
  | _ -> d

let mutable_type_expr e =
  match type_head_path e.exp_env e.exp_type with
  | Some p -> List.mem (norm_type_name p) Policy.mutable_type_heads
  | None -> false

let is_atomic_expr e =
  match type_head_path e.exp_env e.exp_type with
  | Some p -> norm_type_name p = "Atomic.t"
  | None -> false

let head_path e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let head_path_name e = Option.map Path.name (head_path e)

let plain_args args =
  List.filter_map
    (fun (lbl, a) ->
      match (lbl, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

(* the record-type-qualified canon of a field, e.g. "Cache.shard.lock";
   local type names are qualified with the unit so the key is stable
   across files *)
let field_canon ctx (lbl : Types.label_description) =
  let tycanon =
    match Types.get_desc lbl.Types.lbl_res with
    | Types.Tconstr (Path.Pident id, _, _) ->
        ctx.unit_display ^ "." ^ Ident.name id
    | Types.Tconstr (p, _, _) -> display_path p
    | _ -> "?"
  in
  tycanon ^ "." ^ lbl.Types.lbl_name

let foreign_label (lbl : Types.label_description) =
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (Path.Pident _, _, _) -> false
  | Types.Tconstr (_, _, _) -> true
  | _ -> false

(* canonical key + match aliases of an lvalue-ish expression (a mutex, an
   atomic, a guarded global): idents, record fields, array elements *)
let rec lvalue_key ctx e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      match Hashtbl.find_opt ctx.toplevels id with
      | Some canon -> Some { canon; aliases = [ canon; Ident.name id ] }
      | None ->
          let n = Ident.name id in
          Some { canon = n; aliases = [ n ] })
  | Texp_ident (p, _, _) ->
      let d = display_path p in
      Some { canon = d; aliases = [ d; last_segment d ] }
  | Texp_field (b, _, lbl) ->
      let canon = field_canon ctx lbl in
      let extra =
        match lvalue_key ctx b with
        | Some bk -> [ bk.canon ^ "." ^ lbl.Types.lbl_name ]
        | None -> []
      in
      Some { canon; aliases = (canon :: lbl.Types.lbl_name :: extra) }
  | Texp_apply (f, args)
    when head_path_name f = Some "Stdlib.Array.get"
         || head_path_name f = Some "Stdlib.Array.unsafe_get" -> (
      match plain_args args with
      | base :: _ -> (
          match lvalue_key ctx base with
          | Some bk ->
              Some
                {
                  canon = bk.canon ^ ".()";
                  aliases = List.map (fun a -> a ^ ".()") bk.aliases;
                }
          | None -> None)
      | [] -> None)
  | _ -> None

let lock_of ctx e =
  match lvalue_key ctx e with
  | Some lk -> lk
  | None -> { canon = "?"; aliases = [] }

(* ----- pre-pass 1: toplevel idents, guard registrations ----- *)

let binding_ident p =
  match p.pat_desc with
  | Tpat_var (id, name) -> Some (id, name.Asttypes.txt)
  | Tpat_alias (_, id, name) -> Some (id, name.Asttypes.txt)
  | _ -> None

let register_structure ctx prefix str =
  let rec go prefix str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match binding_ident vb.vb_pat with
                | Some (id, name) ->
                    let canon = prefix ^ "." ^ name in
                    Hashtbl.replace ctx.toplevels id canon;
                    (match Suppress.guarded_by vb.vb_attributes with
                    | Some g ->
                        Hashtbl.replace ctx.guards_by_ident id g;
                        ctx.guard_decls <-
                          { g_canon = canon; g_guard = g } :: ctx.guard_decls
                    | None -> ())
                | None -> ())
              vbs
        | Tstr_type (_, decls) ->
            List.iter
              (fun (d : type_declaration) ->
                match d.typ_kind with
                | Ttype_record lds ->
                    List.iter
                      (fun (ld : label_declaration) ->
                        match Suppress.guarded_by ld.ld_attributes with
                        | Some g ->
                            let canon =
                              prefix ^ "." ^ Ident.name d.typ_id ^ "."
                              ^ Ident.name ld.ld_id
                            in
                            Hashtbl.replace ctx.field_guards canon g;
                            ctx.guard_decls <-
                              { g_canon = canon; g_guard = g }
                              :: ctx.guard_decls
                        | None -> ())
                      lds
                | _ -> ())
              decls
        | Tstr_module mb -> (
            match (mb.mb_id, mb.mb_expr.mod_desc) with
            | Some mid, Tmod_structure sub ->
                go (prefix ^ "." ^ Ident.name mid) sub
            | _ -> ())
        | _ -> ())
      str.str_items
  in
  go prefix str

(* ----- pre-pass 2: lock-wrapper inference ----- *)

let rec peel_params acc e =
  match e.exp_desc with
  | Texp_function { param; cases = [ { c_rhs; _ } ]; _ } ->
      peel_params (param :: acc) c_rhs
  | _ -> (List.rev acc, e)

let wrapper_spec ctx params body =
  let classify m =
    match m.exp_desc with
    | Texp_ident (Path.Pident id, _, _)
      when List.exists (Ident.same id) params ->
        let idx = ref 0 in
        List.iteri (fun i p -> if Ident.same p id then idx := i) params;
        Some (W_param (!idx, None))
    | Texp_field ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, _, lbl)
      when List.exists (Ident.same id) params ->
        let idx = ref 0 in
        List.iteri (fun i p -> if Ident.same p id then idx := i) params;
        Some (W_param (!idx, Some (field_canon ctx lbl, lbl.Types.lbl_name)))
    | _ -> (
        match lvalue_key ctx m with
        | Some lk -> Some (W_global lk)
        | None -> None)
  in
  let acquisition e =
    match e.exp_desc with
    | Texp_apply (f, args) when head_path_name f = Some "Stdlib.Mutex.lock"
      -> (
        match plain_args args with m :: _ -> Some m | [] -> None)
    | Texp_apply (f, args)
      when head_path_name f = Some "Stdlib.Mutex.protect" -> (
        match plain_args args with m :: _ -> Some m | [] -> None)
    | _ -> None
  in
  match body.exp_desc with
  | Texp_sequence (e1, _) -> Option.bind (acquisition e1) classify
  | _ -> Option.bind (acquisition body) classify

let register_wrappers ctx str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match binding_ident vb.vb_pat with
              | Some (id, _) -> (
                  let params, body = peel_params [] vb.vb_expr in
                  if params <> [] then
                    match wrapper_spec ctx params body with
                    | Some spec -> Hashtbl.replace ctx.wrappers id spec
                    | None -> ())
              | None -> ())
            vbs
      | _ -> ())
    str.str_items

let wrapper_lock ctx spec args =
  match spec with
  | W_global lk -> Some lk
  | W_param (idx, field) -> (
      match List.nth_opt (plain_args args) idx with
      | Some arg -> (
          let base = lvalue_key ctx arg in
          match field with
          | None -> base
          | Some (canon, fname) ->
              let extra =
                match base with
                | Some bk -> [ bk.canon ^ "." ^ fname ]
                | None -> []
              in
              Some { canon; aliases = (canon :: fname :: extra) })
      | None -> None)

(* ----- R3: top-level mutable state ----- *)

let rec state_maker e =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match head_path_name f with
      | Some p when List.mem p Policy.safe_makers -> None
      | Some p when List.mem p Policy.mutable_makers ->
          Some (last_segment (display_path (Option.get (head_path f))))
      | Some _ ->
          (* a maker hidden behind a function call: the *type* decides *)
          if mutable_type_expr e then Some "mutable-typed value" else None
      | None -> None)
  | Texp_array (_ :: _) -> Some "array literal"
  | Texp_let (_, _, body)
  | Texp_sequence (_, body)
  | Texp_open (_, body) ->
      state_maker body
  | Texp_tuple es -> List.find_map state_maker es
  | _ -> None

(* ----- the walk ----- *)

let expr_mentions_path path e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) when Path.name p = path -> found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

let atomic_key ctx args =
  match plain_args args with
  | a :: _ -> Option.map (fun lk -> lk.canon) (lvalue_key ctx a)
  | [] -> None

(* a fetch_and_add whose delta is a literal 1/-1: discarding its result
   has a drop-in replacement (Atomic.incr/decr); arbitrary deltas have
   no non-fetching equivalent, so those are not flagged *)
let faa_unit_delta e =
  match e.exp_desc with
  | Texp_apply (f, args)
    when head_path_name f = Some "Stdlib.Atomic.fetch_and_add" -> (
      match plain_args args with
      | [ _; { exp_desc = Texp_constant (Asttypes.Const_int (1 | -1)); _ } ]
        ->
          true
      | _ -> false)
  | _ -> false

let acquire ctx loc lk =
  if ctx.conc_active && not (Suppress.allows ctx.sup "r5-lock-order") then
    let line, col = loc_pos loc in
    List.iter
      (fun h ->
        ctx.edges <-
          {
            e_from = h.canon;
            e_to = lk.canon;
            e_file = ctx.file;
            e_line = line;
            e_col = col;
            e_binding = ctx.binding;
          }
          :: ctx.edges)
      ctx.held

let check_guarded_ident ctx p loc =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt ctx.guards_by_ident id with
      | Some g when not (held_satisfies g ctx.held) ->
          let name = Ident.name id in
          report ctx Finding.R5_guarded_by loc (name ^ " guard=" ^ g)
            (Printf.sprintf
               "access to `%s` outside its declared lock `%s` \
                ([@@lint.guarded_by]): take the lock around this access, \
                or annotate [@lint.allow \"r5-guarded-by reason\"]"
               name g)
      | _ -> ())
  | _ ->
      (* cross-module: defer to the driver, which knows every file's
         guard declarations *)
      ()

let record_ext_candidate ctx canon display loc =
  if ctx.conc_active && not (Suppress.allows ctx.sup "r5-guarded-by") then begin
    let line, col = loc_pos loc in
    ctx.ext <-
      {
        x_canon = canon;
        x_display = display;
        x_file = ctx.file;
        x_line = line;
        x_col = col;
        x_binding = ctx.binding;
        x_held = ctx.held;
      }
      :: ctx.ext
  end

let check_field_guard ctx lbl loc =
  if ctx.conc_active then begin
    let canon = field_canon ctx lbl in
    match Hashtbl.find_opt ctx.field_guards canon with
    | Some g when not (held_satisfies g ctx.held) ->
        report ctx Finding.R5_guarded_by loc
          (last_segment canon ^ " guard=" ^ g)
          (Printf.sprintf
             "access to guarded field `%s` outside its declared lock `%s` \
              ([@@lint.guarded_by]): take the lock around this access, or \
              annotate [@lint.allow \"r5-guarded-by reason\"]"
             canon g)
    | Some _ -> ()
    | None ->
        if foreign_label lbl && lbl.Types.lbl_mut = Asttypes.Mutable then
          record_ext_candidate ctx canon canon loc
  end

let check_poly ctx loc op args =
  let is_eq = List.mem op [ "="; "<>"; "compare" ] in
  match List.find_opt floatish_expr args with
  | Some _ ->
      report ctx Finding.R2_float_compare loc op
        (Printf.sprintf
           "polymorphic `%s` on a float operand: NaN and -0.0 compare \
            structurally (use Float.%s / explicit bit-level logic, or \
            annotate [@lint.fp_exact \"reason\"])"
           op
           (match op with
           | "=" -> "equal"
           | "<>" -> "equal + not"
           | o -> o))
  | None -> (
      if is_eq then
        match List.find_map abstract_module_of_expr args with
        | Some m ->
            report ctx Finding.R4_poly_compare loc (op ^ " " ^ m)
              (Printf.sprintf
                 "structural `%s` on an abstract value (%s.t): use the \
                  module's own equal/compare, or annotate [@lint.allow \
                  \"r4 reason\"]"
                 op m)
        | None -> ())

let make_iterator ctx =
  let default = Tast_iterator.default_iterator in
  let with_held self extra f =
    let saved = ctx.held in
    ctx.held <- extra @ saved;
    f self;
    ctx.held <- saved
  in
  let expr self e =
    let saved_sup = ctx.sup and saved_static = ctx.static in
    ctx.static <- false;
    ctx.sup <- Suppress.of_attributes e.exp_attributes ctx.sup;
    let handled =
      match e.exp_desc with
      | Texp_ident (p, _, _) ->
          let name = Path.name p in
          (if ctx.r1_active then
             match Hashtbl.find_opt Policy.bare_float_paths name with
             | Some op ->
                 report ctx Finding.R1_bare_float e.exp_loc op
                   (Printf.sprintf
                      "bare `%s` in soundness-critical code: outward \
                       rounding is not applied; use Rounding/Interval/Box, \
                       or annotate [@lint.fp_exact \"reason\"] if \
                       exactness/heuristic use is intended"
                      op)
             | None -> ());
          if ctx.conc_active then begin
            if name = "Stdlib.Mutex.lock" then
              ctx.mutex_locks <- e.exp_loc :: ctx.mutex_locks;
            check_guarded_ident ctx p e.exp_loc;
            match p with
            | Path.Pident _ -> ()
            | _ ->
                if mutable_type_expr e then
                  record_ext_candidate ctx (display_path p) (display_path p)
                    e.exp_loc
          end;
          false
      | Texp_field (_, _, lbl) ->
          check_field_guard ctx lbl e.exp_loc;
          false
      | Texp_setfield (_, _, lbl, v) ->
          check_field_guard ctx lbl e.exp_loc;
          if ctx.conc_active && ctx.held = [] && is_atomic_expr v then
            report ctx Finding.R6_atomic_publish e.exp_loc
              ("publish " ^ lbl.Types.lbl_name)
              (Printf.sprintf
                 "Atomic.t published through non-atomic mutable field \
                  `%s` with no lock held: another domain can observe the \
                  field before the atomic's initialization; publish \
                  under a lock / through an Atomic, or annotate \
                  [@lint.allow \"r6-atomic-publish reason\"]"
                 lbl.Types.lbl_name);
          false
      | Texp_sequence (e1, e2) ->
          self.Tast_iterator.expr self e1;
          (let lock_op =
             match e1.exp_desc with
             | Texp_apply (f, args) -> (
                 match (head_path_name f, plain_args args) with
                 | Some "Stdlib.Mutex.lock", m :: _ ->
                     Some (`Lock (lock_of ctx m, e1.exp_loc))
                 | Some "Stdlib.Mutex.unlock", m :: _ ->
                     Some (`Unlock (lock_of ctx m))
                 | _ -> None)
             | _ -> None
           in
           match lock_op with
           | Some (`Lock (lk, loc)) ->
               acquire ctx loc lk;
               with_held self [ lk ] (fun self ->
                   self.Tast_iterator.expr self e2)
           | Some (`Unlock lk) ->
               let saved = ctx.held in
               ctx.held <-
                 List.filter (fun h -> h.canon <> lk.canon) ctx.held;
               self.Tast_iterator.expr self e2;
               ctx.held <- saved
           | None -> self.Tast_iterator.expr self e2);
          true
      | Texp_apply (f, args) -> (
          let fname = head_path_name f in
          (* typed R2/R4 on the actual argument types *)
          (match fname with
          | Some p
            when List.mem p Policy.poly_eq_paths
                 || List.mem p Policy.poly_minmax_paths ->
              let present = plain_args args in
              if present <> [] then
                check_poly ctx e.exp_loc (last_segment p) present
          | _ -> ());
          (* R6 atomic protocol bookkeeping *)
          (if ctx.conc_active then
             match fname with
             | Some "Stdlib.Atomic.get" -> (
                 match atomic_key ctx args with
                 | Some k -> ctx.atomic_gets <- (k, e.exp_loc) :: ctx.atomic_gets
                 | None -> ())
             | Some "Stdlib.Atomic.set" -> (
                 match atomic_key ctx args with
                 | Some k ->
                     ctx.atomic_sets <-
                       (k, e.exp_loc, ctx.sup, ctx.held = [])
                       :: ctx.atomic_sets
                 | None -> ())
             | Some
                 ( "Stdlib.Atomic.compare_and_set" | "Stdlib.Atomic.exchange"
                 | "Stdlib.Atomic.fetch_and_add" | "Stdlib.Atomic.incr"
                 | "Stdlib.Atomic.decr" ) -> (
                 match atomic_key ctx args with
                 | Some k -> ctx.atomic_rmw <- k :: ctx.atomic_rmw
                 | None -> ())
             | Some "Stdlib.ignore" -> (
                 match plain_args args with
                 | [ a ] when faa_unit_delta a ->
                     report ctx Finding.R6_faa_discard e.exp_loc
                       "ignore fetch_and_add"
                       "fetch_and_add result discarded: use \
                        Atomic.incr/decr (same RMW, clearer intent), or \
                        annotate [@lint.allow \"r6-faa-discard reason\"] \
                        if only the ordering matters"
                 | _ -> ())
             | Some ":=" | Some "Stdlib.:=" -> (
                 match plain_args args with
                 | [ _; v ] when ctx.held = [] && is_atomic_expr v ->
                     report ctx Finding.R6_atomic_publish e.exp_loc
                       "publish :="
                       "Atomic.t published through a non-atomic ref with \
                        no lock held: another domain can observe the ref \
                        before the atomic's initialization; publish under \
                        a lock / through an Atomic, or annotate \
                        [@lint.allow \"r6-atomic-publish reason\"]"
                 | _ -> ())
             | Some "Stdlib.Fun.protect" ->
                 if
                   List.exists
                     (fun (lbl, a) ->
                       lbl = Asttypes.Labelled "finally"
                       &&
                       match a with
                       | Some a -> expr_mentions_path "Stdlib.Mutex.unlock" a
                       | None -> false)
                     args
                 then ctx.mutex_protected <- true
             | _ -> ());
          (* lock acquisitions: Mutex.protect and inferred wrappers *)
          let acquisition =
            if not ctx.conc_active then None
            else
              match fname with
              | Some "Stdlib.Mutex.protect" -> (
                  match plain_args args with
                  | m :: _ -> Some (lock_of ctx m)
                  | [] -> None)
              | _ -> (
                  match f.exp_desc with
                  | Texp_ident (Path.Pident id, _, _) -> (
                      match Hashtbl.find_opt ctx.wrappers id with
                      | Some spec -> wrapper_lock ctx spec args
                      | None -> None)
                  | _ -> None)
          in
          match acquisition with
          | Some lk ->
              acquire ctx e.exp_loc lk;
              self.Tast_iterator.expr self f;
              List.iter
                (fun (_, a) ->
                  match a with
                  | Some a -> (
                      match a.exp_desc with
                      | Texp_function _ ->
                          with_held self [ lk ] (fun self ->
                              self.Tast_iterator.expr self a)
                      | _ -> self.Tast_iterator.expr self a)
                  | None -> ())
                args;
              true
          | None -> false)
      | _ -> false
    in
    if not handled then default.expr self e;
    ctx.sup <- saved_sup;
    ctx.static <- saved_static
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun self p ->
    (match p.pat_desc with
    | Tpat_constant (Asttypes.Const_float lit) ->
        report ctx Finding.R2_float_compare p.pat_loc ("pattern " ^ lit)
          (Printf.sprintf
             "float literal pattern %s matches by structural equality \
              (NaN/-0.0 hazards); compare explicitly"
             lit)
    | _ -> ());
    default.pat self p
  in
  let finish_binding () =
    (* R6: a get and a set of the same atomic in one binding without a
       CAS-family op on it is a lost-update window *)
    List.iter
      (fun (k, loc, sup, unlocked) ->
        if
          unlocked
          && List.exists (fun (k', _) -> k' = k) ctx.atomic_gets
          && not (List.mem k ctx.atomic_rmw)
        then
          report ~sup ctx Finding.R6_atomic_rmw loc ("get->set " ^ k)
            (Printf.sprintf
               "non-CAS read-modify-write on atomic `%s`: the value read \
                by Atomic.get can be overwritten between the get and this \
                Atomic.set (lost update); use \
                compare_and_set/exchange/fetch_and_add, or annotate \
                [@lint.allow \"r6-atomic-rmw reason\"]"
               k))
      ctx.atomic_sets;
    (* R3: exception-unsafe Mutex.lock, binding-granular like v1 *)
    if ctx.r3_active && ctx.mutex_locks <> [] && not ctx.mutex_protected then
      List.iter
        (fun loc ->
          report ctx Finding.R3_mutex_unsafe loc "Mutex.lock"
            "Mutex.lock whose unlock is not exception-safe: wrap the \
             critical section in Fun.protect ~finally:(fun () -> \
             Mutex.unlock ...) or use Mutex.protect")
        (List.rev ctx.mutex_locks);
    ctx.atomic_gets <- [];
    ctx.atomic_sets <- [];
    ctx.atomic_rmw <- [];
    ctx.mutex_locks <- [];
    ctx.mutex_protected <- false
  in
  let structure_item self item =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let saved_sup = ctx.sup and saved_binding = ctx.binding in
            ctx.sup <- Suppress.of_attributes vb.vb_attributes ctx.sup;
            (match binding_ident vb.vb_pat with
            | Some (_, n) -> ctx.binding <- n
            | None -> ());
            if ctx.static && ctx.r3_active then begin
              match state_maker vb.vb_expr with
              | Some maker ->
                  report ctx Finding.R3_top_mutable vb.vb_pat.pat_loc
                    (Printf.sprintf "%s=%s" ctx.binding maker)
                    (Printf.sprintf
                       "top-level mutable state (`%s` via %s) reachable \
                        from parallel workers: use Atomic/Mutex/Domain.DLS \
                        or annotate [@@lint.guarded_by \"mutex\"]"
                       ctx.binding maker)
              | None -> ()
            end;
            self.Tast_iterator.pat self vb.vb_pat;
            self.Tast_iterator.expr self vb.vb_expr;
            finish_binding ();
            ctx.sup <- saved_sup;
            ctx.binding <- saved_binding)
          vbs
    | _ -> default.structure_item self item
  in
  let structure self str =
    (* floating [@@@lint.*] attributes scope over the rest of the file
       (or of the enclosing module) *)
    let saved = ctx.sup in
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_attribute a -> ctx.sup <- Suppress.add a ctx.sup
        | _ -> self.Tast_iterator.structure_item self item)
      str.str_items;
    ctx.sup <- saved
  in
  { default with expr; pat; structure_item; structure }

let check ~file ~unit_display (tstr : structure) : result_ =
  let ctx =
    {
      file;
      unit_display;
      r1_active = Policy.r1_scope file;
      r3_active = Policy.r3_scope file;
      conc_active = Policy.conc_scope file;
      binding = "";
      sup = Suppress.empty;
      static = true;
      held = [];
      toplevels = Hashtbl.create 64;
      guards_by_ident = Hashtbl.create 8;
      field_guards = Hashtbl.create 8;
      wrappers = Hashtbl.create 8;
      atomic_gets = [];
      atomic_sets = [];
      atomic_rmw = [];
      mutex_locks = [];
      mutex_protected = false;
      findings = [];
      edges = [];
      guard_decls = [];
      ext = [];
    }
  in
  register_structure ctx ctx.unit_display tstr;
  register_wrappers ctx tstr;
  let it = make_iterator ctx in
  it.Tast_iterator.structure it tstr;
  {
    findings = List.sort Finding.compare_loc ctx.findings;
    edges = List.rev ctx.edges;
    guards = ctx.guard_decls;
    ext = List.rev ctx.ext;
  }
