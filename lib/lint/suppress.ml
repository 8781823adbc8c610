(* Suppression attributes understood by the linter:

   - [@lint.fp_exact "reason"] / [@@lint.fp_exact "reason"] — the float
     arithmetic in scope is intentionally exact (or intentionally
     heuristic: midpoints, telemetry, step-size control) and must not go
     through Rounding.  Suppresses R1 and R2.
   - [@@lint.guarded_by "mutex_name"] — the top-level mutable binding
     (or mutable record label) is protected by the named mutex on every
     access path.  Suppresses r3-top-mutable AND registers the binding
     with rule R5, which *checks* the claim: accesses outside a region
     holding the named lock are P1 findings (see Finding docs for the
     annotation grammar).
   - [@lint.allow "rule-id reason"] — generic escape hatch; the first
     token names a rule id or family prefix ("r4").  Scoped like any
     attribute: expression, binding ([@@...]) or rest-of-file
     ([@@@...]); a whole-file waiver is a [@@@lint.allow] on the file's
     first line.

   These attributes are the only way to accept a finding: each names
   its reason next to the code it excuses. *)

type t = { fp_exact : bool; allowed : string list }

let empty = { fp_exact = false; allowed = [] }

let payload_string (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let add (attr : Parsetree.attribute) t =
  match attr.attr_name.txt with
  | "lint.fp_exact" -> { t with fp_exact = true }
  | "lint.guarded_by" -> { t with allowed = "r3-top-mutable" :: t.allowed }
  | "lint.allow" -> (
      match payload_string attr with
      | None -> t
      | Some s ->
          let rule =
            match String.index_opt s ' ' with
            | Some i -> String.sub s 0 i
            | None -> s
          in
          { t with allowed = rule :: t.allowed })
  | _ -> t

let of_attributes attrs t = List.fold_left (fun t a -> add a t) t attrs

(* the payload of a [@@lint.guarded_by "m"] attribute, for the R5
   registry (the suppression side is handled by [add]) *)
let guarded_by attrs =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt = "lint.guarded_by" then payload_string a else None)
    attrs

(* a rule id, or a family prefix ("r1" matches "r1-bare-float") *)
let rule_matches pattern rule_id =
  pattern = rule_id || String.starts_with ~prefix:(pattern ^ "-") rule_id

let allows t rule_id =
  (t.fp_exact
  && (rule_id = "r1-bare-float" || rule_id = "r2-float-compare"))
  || List.exists (fun p -> rule_matches p rule_id) t.allowed
