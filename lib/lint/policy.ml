(* Repo policy for the lint rules: which directories are
   soundness-critical, what counts as bare float arithmetic and which
   modules hold abstract types.  Waivers live in the source, as the
   attributes Suppress reads.

   Since the typedtree rewrite the identifier sets below are *resolved*
   paths (what Path.name prints after typechecking), not surface
   syntax: a file-local [sqrt] shadows the libm one in the typer itself,
   so no shadowing heuristics are needed. *)

(* R1 applies only where a bare rounding error can corrupt an
   enclosure.  lib/nn, lib/linalg, lib/acasxu are concrete-math
   (training, simulation sampling) by design. *)
let r1_dirs =
  [ "lib/interval"; "lib/ode"; "lib/nnabs"; "lib/affine"; "lib/core" ]

(* R3 applies to every library reachable from the Domain.spawn workers
   in Verify.verify_partition — approximated as all of lib/.  bin/ is
   excluded: Arg/Cmdliner option refs at executable toplevel are
   main-domain-only by construction. *)
let r3_dirs = [ "lib" ]

(* The concurrency protocols (R5 lock discipline, R6 atomics) also
   cover the executables: nncs_serve spawns dispatcher domains from
   bin/. *)
let conc_dirs = [ "lib"; "bin" ]

(* ----- resolved-path identifier sets ----- *)

let bare_float_ops = [ "+."; "-."; "*."; "/."; "**" ]

let bare_float_funs =
  [
    "sqrt"; "exp"; "log"; "log10"; "log1p"; "expm1"; "sin"; "cos"; "tan";
    "asin"; "acos"; "atan"; "atan2"; "sinh"; "cosh"; "tanh"; "hypot";
    "cbrt"; "mod_float"; "ldexp"; "frexp";
  ]

(* Float.* entries that perform a rounding operation.  Exact queries
   and NaN-correct selections (is_nan, abs, min, max, neg, ...) are
   deliberately absent. *)
let float_module_rounding =
  [
    "add"; "sub"; "mul"; "div"; "pow"; "rem"; "sqrt"; "exp"; "exp2";
    "log"; "log10"; "log2"; "log1p"; "expm1"; "sin"; "cos"; "tan";
    "asin"; "acos"; "atan"; "atan2"; "sinh"; "cosh"; "tanh"; "hypot";
    "cbrt"; "fma"; "of_string";
  ]

(* resolved path -> display name for R1, e.g. "Stdlib.+." -> "+.",
   "Stdlib.Float.add" -> "Float.add" *)
let bare_float_paths : (string, string) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter (fun op -> Hashtbl.replace t ("Stdlib." ^ op) op) bare_float_ops;
  List.iter (fun f -> Hashtbl.replace t ("Stdlib." ^ f) f) bare_float_funs;
  List.iter
    (fun f -> Hashtbl.replace t ("Stdlib.Float." ^ f) ("Float." ^ f))
    float_module_rounding;
  t

let poly_eq_paths = [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare" ]
let poly_minmax_paths = [ "Stdlib.min"; "Stdlib.max" ]

(* Modules whose principal type is abstract (or whose structural
   equality is documented as meaningless): comparing their values with
   polymorphic =/compare is R4.  Matched against the owning module of
   the operand's resolved type constructor, with dune unit mangling
   stripped ("Nncs_interval__Box.t" owns "Box"). *)
let abstract_modules =
  [
    "Network"; "Symstate"; "Symset"; "System"; "Controller"; "Box";
    "Interval"; "Interval_matrix"; "Affine_form"; "Expr"; "Ode"; "Cache";
  ]

(* Constructors of shared mutable state (R3), as resolved paths ... *)
let mutable_makers =
  [
    "Stdlib.ref"; "Stdlib.Hashtbl.create"; "Stdlib.Array.make";
    "Stdlib.Array.init"; "Stdlib.Array.copy"; "Stdlib.Array.create_float";
    "Stdlib.Array.make_matrix"; "Stdlib.Buffer.create";
    "Stdlib.Queue.create"; "Stdlib.Stack.create"; "Stdlib.Bytes.create";
    "Stdlib.Bytes.make"; "Stdlib.Bytes.copy"; "Stdlib.Weak.create";
  ]

(* ... and the domain-safe ones that exempt a binding. *)
let safe_makers =
  [
    "Stdlib.Atomic.make"; "Stdlib.Mutex.create"; "Stdlib.Condition.create";
    "Stdlib.Semaphore.Counting.make"; "Stdlib.Semaphore.Binary.make";
    "Stdlib.Domain.DLS.new_key";
  ]

(* Type constructors that make a top-level binding shared mutable state
   even when the maker is hidden behind a function call (typed R3), and
   that mark a global as a candidate for cross-module [@@lint.guarded_by]
   checking (R5).  Display names with the Stdlib prefix stripped (type
   paths normalize to defining units like Stdlib__Hashtbl). *)
let mutable_type_heads =
  [ "ref"; "Hashtbl.t"; "Queue.t"; "Stack.t"; "Buffer.t"; "Bytes.t"; "array" ]

let in_dirs dirs file =
  List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") file) dirs

let r1_scope file = in_dirs r1_dirs file
let r3_scope file = in_dirs r3_dirs file
let conc_scope file = in_dirs conc_dirs file
