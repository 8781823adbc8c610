type rule =
  | R1_bare_float
  | R2_float_compare
  | R3_top_mutable
  | R3_mutex_unsafe
  | R4_poly_compare
  | R5_guarded_by
  | R5_lock_order
  | R6_atomic_rmw
  | R6_atomic_publish
  | R6_faa_discard
  | Parse_failure
  | Type_failure

type severity = P1 | P2

let rule_id = function
  | R1_bare_float -> "r1-bare-float"
  | R2_float_compare -> "r2-float-compare"
  | R3_top_mutable -> "r3-top-mutable"
  | R3_mutex_unsafe -> "r3-mutex-unsafe"
  | R4_poly_compare -> "r4-poly-compare"
  | R5_guarded_by -> "r5-guarded-by"
  | R5_lock_order -> "r5-lock-order"
  | R6_atomic_rmw -> "r6-atomic-rmw"
  | R6_atomic_publish -> "r6-atomic-publish"
  | R6_faa_discard -> "r6-faa-discard"
  | Parse_failure -> "parse-failure"
  | Type_failure -> "type-failure"

(* Soundness (R1) and concurrency defects that corrupt state or deadlock
   (R3, R5, the atomic lost-update window) make verdicts wrong or hang
   runs: P1.  Comparison hazards (R2/R4) and the advisory atomic
   protocols are usually latent: P2.  Either fails the run; the severity
   says which to read first. *)
let severity = function
  | R1_bare_float | R3_top_mutable | R3_mutex_unsafe | R5_guarded_by
  | R5_lock_order | R6_atomic_rmw | Parse_failure | Type_failure ->
      P1
  | R2_float_compare | R4_poly_compare | R6_atomic_publish | R6_faa_discard ->
      P2

let severity_id = function P1 -> "P1" | P2 -> "P2"

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  binding : string;  (* enclosing top-level binding, "" at toplevel *)
  detail : string;   (* the operator / identifier / binding flagged *)
  message : string;
}

let compare_loc a b =
  Stdlib.compare
    (a.file, a.line, a.col, rule_id a.rule, a.detail)
    (b.file, b.line, b.col, rule_id b.rule, b.detail)

let to_string f =
  Printf.sprintf "%s:%d:%d [%s/%s] %s%s" f.file f.line f.col (rule_id f.rule)
    (severity_id (severity f.rule))
    f.message
    (if f.binding = "" then "" else Printf.sprintf " (in `%s`)" f.binding)

let to_json f =
  Nncs_obs.Json.Obj
    [
      ("t", Nncs_obs.Json.Str "finding");
      ("rule", Nncs_obs.Json.Str (rule_id f.rule));
      ("severity", Nncs_obs.Json.Str (severity_id (severity f.rule)));
      ("file", Nncs_obs.Json.Str f.file);
      ("line", Nncs_obs.Json.Num (float_of_int f.line));
      ("col", Nncs_obs.Json.Num (float_of_int f.col));
      ("binding", Nncs_obs.Json.Str f.binding);
      ("detail", Nncs_obs.Json.Str f.detail);
      ("message", Nncs_obs.Json.Str f.message);
    ]
