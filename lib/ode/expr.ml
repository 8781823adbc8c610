module I = Nncs_interval.Interval
module B = Nncs_interval.Box

type t =
  | Const of float
  | Time
  | State of int
  | Input of int
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Sin of t
  | Cos of t
  | Exp of t
  | Sqrt of t
  | Sqr of t
  | Atan of t
  | Pow of t * int

let const c = Const c
let time = Time
let state i = State i
let input i = Input i
let neg = function Const c -> Const (-.c) | Neg e -> e | e -> Neg e

(* Constant folding must not perturb the dynamics: [diff] builds
   variational equations through these smart constructors, and a
   round-to-nearest fold would silently replace the true constant with a
   nearby one — an unsound model change, not a conservative one.  So a
   binary fold fires only when the float result is provably exact
   (error-free-transformation residual = 0); otherwise the node is kept
   and [eval_interval] encloses it rigorously.  Transcendental constants
   are never folded (libm is not correctly rounded). *)

let exact_add x y =
  let s = x +. y in
  let bb = s -. x in
  Float.is_finite s && (x -. (s -. bb)) +. (y -. bb) = 0.0
[@@lint.fp_exact "TwoSum residual: detects exact float addition"]

let exact_mul_result x y =
  let p = x *. y in
  if Float.is_finite p && Float.fma x y (-.p) = 0.0 then Some p else None
[@@lint.fp_exact "fma residual: detects exact float multiplication"]

let exact_div_result x y =
  let q = x /. y in
  if Float.is_finite q && Float.fma q y (-.x) = 0.0 then Some q else None
[@@lint.fp_exact "fma residual: detects exact float division"]

let ( + ) a b =
  match (a, b) with
  | Const 0.0, e | e, Const 0.0 -> e
  | Const x, Const y when exact_add x y -> Const (x +. y)
  | a, b -> Add (a, b)
[@@lint.fp_exact "fold guarded by exact_add"]

let ( - ) a b =
  match (a, b) with
  | e, Const 0.0 -> e
  | Const 0.0, e -> neg e
  | Const x, Const y when exact_add x (-.y) -> Const (x -. y)
  | a, b -> Sub (a, b)
[@@lint.fp_exact "fold guarded by exact_add on the negated operand"]

let ( * ) a b =
  match (a, b) with
  | Const 0.0, _ | _, Const 0.0 -> Const 0.0
  | Const 1.0, e | e, Const 1.0 -> e
  | Const x, Const y -> (
      match exact_mul_result x y with Some p -> Const p | None -> Mul (a, b))
  | a, b -> Mul (a, b)
[@@lint.fp_exact "fold guarded by exact_mul_result"]

let ( / ) a b =
  match (a, b) with
  | Const 0.0, _ -> Const 0.0
  | e, Const 1.0 -> e
  | Const x, Const y when y <> 0.0 -> (
      match exact_div_result x y with Some q -> Const q | None -> Div (a, b))
  | a, b -> Div (a, b)
[@@lint.fp_exact "fold guarded by exact_div_result"]

let sin = function e -> Sin e
let cos = function e -> Cos e
let exp = function e -> Exp e

let sqrt = function
  | Const c when c >= 0.0 && Float.fma (Float.sqrt c) (Float.sqrt c) (-.c) = 0.0
    ->
      Const (Float.sqrt c)
  | e -> Sqrt e
[@@lint.fp_exact "fold only exact square roots (fma residual guard)"]

let sqr = function
  | Const c -> (
      match exact_mul_result c c with Some p -> Const p | None -> Sqr (Const c))
  | e -> Sqr e

let atan = function e -> Atan e

let pow e n =
  if n < 0 then invalid_arg "Expr.pow: negative exponent"
  else if n = 0 then Const 1.0
  else if n = 1 then e
  else if n = 2 then sqr e
  else Pow (e, n)

let scale c e = Const c * e

let rec eval e ~time ~state ~inputs =
  match e with
  | Const c -> c
  | Time -> time
  | State i -> state.(i)
  | Input i -> inputs.(i)
  | Neg a -> -.eval a ~time ~state ~inputs
  | Add (a, b) -> eval a ~time ~state ~inputs +. eval b ~time ~state ~inputs
  | Sub (a, b) -> eval a ~time ~state ~inputs -. eval b ~time ~state ~inputs
  | Mul (a, b) -> eval a ~time ~state ~inputs *. eval b ~time ~state ~inputs
  | Div (a, b) -> eval a ~time ~state ~inputs /. eval b ~time ~state ~inputs
  | Sin a -> Float.sin (eval a ~time ~state ~inputs)
  | Cos a -> Float.cos (eval a ~time ~state ~inputs)
  | Exp a -> Float.exp (eval a ~time ~state ~inputs)
  | Sqrt a -> Float.sqrt (eval a ~time ~state ~inputs)
  | Sqr a ->
      let v = eval a ~time ~state ~inputs in
      v *. v
  | Atan a -> Float.atan (eval a ~time ~state ~inputs)
  | Pow (a, n) -> Float.pow (eval a ~time ~state ~inputs) (float_of_int n)
[@@lint.fp_exact
  "concrete point evaluator for simulation/falsification only; the \
   verified path goes through eval_interval"]

let rec eval_interval e ~time ~state ~inputs =
  match e with
  | Const c -> I.of_float c
  | Time -> time
  | State i -> B.get state i
  | Input i -> B.get inputs i
  | Neg a -> I.neg (eval_interval a ~time ~state ~inputs)
  | Add (a, b) ->
      I.add (eval_interval a ~time ~state ~inputs) (eval_interval b ~time ~state ~inputs)
  | Sub (a, b) ->
      I.sub (eval_interval a ~time ~state ~inputs) (eval_interval b ~time ~state ~inputs)
  | Mul (a, b) ->
      I.mul (eval_interval a ~time ~state ~inputs) (eval_interval b ~time ~state ~inputs)
  | Div (a, b) ->
      I.div (eval_interval a ~time ~state ~inputs) (eval_interval b ~time ~state ~inputs)
  | Sin a -> I.sin (eval_interval a ~time ~state ~inputs)
  | Cos a -> I.cos (eval_interval a ~time ~state ~inputs)
  | Exp a -> I.exp (eval_interval a ~time ~state ~inputs)
  | Sqrt a -> I.sqrt (eval_interval a ~time ~state ~inputs)
  | Sqr a -> I.sqr (eval_interval a ~time ~state ~inputs)
  | Atan a -> I.atan (eval_interval a ~time ~state ~inputs)
  | Pow (a, n) -> I.pow_int (eval_interval a ~time ~state ~inputs) n

let rec fold_indices f acc e =
  match e with
  | Const _ | Time -> acc
  | State _ | Input _ -> f acc e
  | Neg a | Sin a | Cos a | Exp a | Sqrt a | Sqr a | Atan a | Pow (a, _) ->
      fold_indices f acc a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      fold_indices f (fold_indices f acc a) b

let max_state_index e =
  fold_indices (fun acc n -> match n with State i -> max acc i | _ -> acc) (-1) e

let max_input_index e =
  fold_indices (fun acc n -> match n with Input i -> max acc i | _ -> acc) (-1) e

let rec pp fmt = function
  | Const c -> Format.fprintf fmt "%g" c
  | Time -> Format.fprintf fmt "t"
  | State i -> Format.fprintf fmt "s%d" i
  | Input i -> Format.fprintf fmt "u%d" i
  | Neg a -> Format.fprintf fmt "(- %a)" pp a
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp a pp b
  | Sin a -> Format.fprintf fmt "sin(%a)" pp a
  | Cos a -> Format.fprintf fmt "cos(%a)" pp a
  | Exp a -> Format.fprintf fmt "exp(%a)" pp a
  | Sqrt a -> Format.fprintf fmt "sqrt(%a)" pp a
  | Sqr a -> Format.fprintf fmt "sqr(%a)" pp a
  | Atan a -> Format.fprintf fmt "atan(%a)" pp a
  | Pow (a, n) -> Format.fprintf fmt "%a^%d" pp a n

let rec diff e i =
  match e with
  | Const _ | Time | Input _ -> Const 0.0
  | State j -> if j = i then Const 1.0 else Const 0.0
  | Neg a -> neg (diff a i)
  | Add (a, b) -> diff a i + diff b i
  | Sub (a, b) -> diff a i - diff b i
  | Mul (a, b) -> (diff a i * b) + (a * diff b i)
  | Div (a, b) -> ((diff a i * b) - (a * diff b i)) / sqr b
  | Sin a -> cos a * diff a i
  | Cos a -> neg (sin a) * diff a i
  | Exp a -> exp a * diff a i
  | Sqrt a -> diff a i / (Const 2.0 * sqrt a)
  | Sqr a -> Const 2.0 * a * diff a i
  | Atan a -> diff a i / (Const 1.0 + sqr a)
  | Pow (_, 0) -> Const 0.0
  | Pow (a, n) -> Const (float_of_int n) * pow a (Stdlib.( - ) n 1) * diff a i
