module I = Nncs_interval.Interval
module B = Nncs_interval.Box

(* Operands are indices of earlier nodes, so array order is a
   topological order. *)
type node =
  | Const of int64  (* bit pattern: 0.0 and -0.0 are different nodes *)
  | Time
  | State of int
  | Input of int
  | Neg of int
  | Add of int * int
  | Sub of int * int
  | Mul of int * int
  | Div of int * int
  | Sin_cos of int  (* the sine; its cosine is the next node *)
  | Cos_of_pair  (* filled by the [Sin_cos] node just before it *)
  | Exp of int
  | Sqrt of int
  | Atan of int * int  (* argument, and the node of 1 + argument^2 *)

type tape = { nodes : node array; outputs : int array }

let compile exprs =
  let nodes = ref [] and count = ref 0 in
  let index = Hashtbl.create 64 in
  let push n =
    nodes := n :: !nodes;
    incr count;
    !count - 1
  in
  let intern n =
    match Hashtbl.find_opt index n with
    | Some v -> v
    | None ->
        let v = push n in
        Hashtbl.add index n v;
        v
  in
  let sin_cos a =
    match Hashtbl.find_opt index (Sin_cos a) with
    | Some v -> v
    | None ->
        let v = push (Sin_cos a) in
        ignore (push Cos_of_pair);
        Hashtbl.add index (Sin_cos a) v;
        v
  in
  let const c = intern (Const (Int64.bits_of_float c)) in
  let mul a b = intern (Mul (a, b)) in
  (* binary powering as a chain of product nodes, starting from the
     constant 1: a product with 1 still rounds outward, so it stays *)
  let pow a n =
    if n < 0 then invalid_arg "Series.compile: negative exponent";
    let rec go acc base n =
      let acc = if n land 1 = 1 then mul acc base else acc in
      if n asr 1 = 0 then acc else go acc (mul base base) (n asr 1)
    in
    if n = 0 then const 1.0 else go (const 1.0) a n
  in
  let rec go = function
    | Expr.Const c -> const c
    | Expr.Time -> intern Time
    | Expr.State i -> intern (State i)
    | Expr.Input i -> intern (Input i)
    | Expr.Neg a -> intern (Neg (go a))
    | Expr.Add (a, b) -> binary (fun a b -> Add (a, b)) a b
    | Expr.Sub (a, b) -> binary (fun a b -> Sub (a, b)) a b
    | Expr.Mul (a, b) -> binary (fun a b -> Mul (a, b)) a b
    | Expr.Div (a, b) -> binary (fun a b -> Div (a, b)) a b
    | Expr.Sin a -> sin_cos (go a)
    | Expr.Cos a -> sin_cos (go a) + 1
    | Expr.Exp a -> intern (Exp (go a))
    | Expr.Sqrt a -> intern (Sqrt (go a))
    | Expr.Sqr a ->
        let a = go a in
        mul a a
    | Expr.Atan a ->
        let a = go a in
        intern (Atan (a, intern (Add (const 1.0, mul a a))))
    | Expr.Pow (a, n) -> pow (go a) n
  and binary f a b =
    let a = go a in
    let b = go b in
    intern (f a b)
  in
  let outputs = Array.map go exprs in
  { nodes = Array.of_list (List.rev !nodes); outputs }

let const k c = Array.init (k + 1) (fun i -> if i = 0 then c else I.zero)

let time_var k t0 =
  Array.init (k + 1) (fun i ->
      if i = 0 then t0 else if i = 1 then I.one else I.zero)

(* Coefficient planes 0..k of every node: leaves complete, every other
   node zero until [fill] reaches it. *)
let planes tape ~order:k ~time ~state ~inputs =
  Array.map
    (function
      | Const c -> const k (I.of_float (Int64.float_of_bits c))
      | Time -> time_var k time
      | State i -> state.(i)
      | Input i -> const k (B.get inputs i)
      | _ -> Array.make (k + 1) I.zero)
    tape.nodes

(* Degree n of every node from degrees <= n of its operands.  Each case
   runs the interval-op sequence of one index of the classical jet
   recurrence. *)
let fill tape planes ~order:k n =
  let nodes = tape.nodes in
  for v = 0 to Array.length nodes - 1 do
    let p = planes.(v) in
    match nodes.(v) with
    | Const _ | Time | State _ | Input _ | Cos_of_pair -> ()
    | Neg a -> p.(n) <- I.neg planes.(a).(n)
    | Add (a, b) -> p.(n) <- I.add planes.(a).(n) planes.(b).(n)
    | Sub (a, b) -> p.(n) <- I.sub planes.(a).(n) planes.(b).(n)
    | Mul (a, b) ->
        let a = planes.(a) and b = planes.(b) in
        let acc = ref I.zero in
        for j = 0 to n do
          acc := I.add !acc (I.mul a.(j) b.(n - j))
        done;
        p.(n) <- !acc
    | Div (a, b) ->
        let b = planes.(b) in
        let acc = ref planes.(a).(n) in
        for j = 0 to n - 1 do
          acc := I.sub !acc (I.mul p.(j) b.(n - j))
        done;
        p.(n) <- I.div !acc b.(0)
    | Sin_cos a ->
        let a = planes.(a) and c = planes.(v + 1) in
        if n = 0 then begin
          p.(0) <- I.sin a.(0);
          c.(0) <- I.cos a.(0)
        end
        else begin
          let sacc = ref I.zero and cacc = ref I.zero in
          for j = 1 to n do
            let ja = I.mul_float (float_of_int j) a.(j) in
            sacc := I.add !sacc (I.mul ja c.(n - j));
            cacc := I.add !cacc (I.mul ja p.(n - j))
          done;
          let n_iv = I.of_float (float_of_int n) in
          p.(n) <- I.div !sacc n_iv;
          c.(n) <- I.neg (I.div !cacc n_iv)
        end
    | Exp a ->
        let a = planes.(a) in
        if n = 0 then p.(0) <- I.exp a.(0)
        else begin
          let acc = ref I.zero in
          for j = 1 to n do
            acc := I.add !acc (I.mul (I.mul_float (float_of_int j) a.(j)) p.(n - j))
          done;
          (* divide by the exact integer, not by a nearest-rounded 1/n scalar *)
          p.(n) <- I.div !acc (I.of_float (float_of_int n))
        end
    | Sqrt a ->
        let a = planes.(a) in
        if n = 0 then begin
          p.(0) <- I.sqrt a.(0);
          (* Every degree >= 1 divides by 2 r0.  Check it here too, so
             that a series with a degree 1 raises even when no pass
             reaches degree 1 (order 1 in solve mode). *)
          if k >= 1 && I.contains (I.mul_float 2.0 p.(0)) 0.0 then
            raise I.Division_by_zero_interval
        end
        else begin
          let two_r0 = I.mul_float 2.0 p.(0) in
          let acc = ref a.(n) in
          for j = 1 to n - 1 do
            acc := I.sub !acc (I.mul p.(j) p.(n - j))
          done;
          p.(n) <- I.div !acc two_r0
        end
    | Atan (a, g) ->
        (* t' * g = a' with g = 1 + a^2 *)
        let a = planes.(a) and g = planes.(g) in
        if n = 0 then begin
          p.(0) <- I.atan a.(0);
          (* Degree n >= 1 divides by n g0, and g0 = 1 + a0 * a0 is an
             interval product: it contains 0 when a0 straddles 0 widely.
             n = 1 gives the lowest lower bound, so checking it here
             raises exactly when some degree >= 1 would, as for Sqrt. *)
          if k >= 1 && I.contains (I.mul_float 1.0 g.(0)) 0.0 then
            raise I.Division_by_zero_interval
        end
        else begin
          let acc = ref (I.mul_float (float_of_int n) a.(n)) in
          for j = 1 to n - 1 do
            acc := I.sub !acc (I.mul (I.mul_float (float_of_int j) p.(j)) g.(n - j))
          done;
          p.(n) <- I.div !acc (I.mul_float (float_of_int n) g.(0))
        end
  done

let solution_coeffs tape ~order:k ~time ~state ~inputs =
  let dim = Array.length tape.outputs in
  if k < 1 then invalid_arg "Series.solution_coeffs: order must be >= 1";
  if B.dim state <> dim then
    invalid_arg "Series.solution_coeffs: state dimension differs from the tape";
  let z = Array.init dim (fun i -> const k (B.get state i)) in
  let planes = planes tape ~order:k ~time ~state:z ~inputs in
  (* z^(n+1) = f(z)^(n) / (n+1): degree n of every node reads degrees
     0..n of z, all final once pass n starts. *)
  for n = 0 to k - 1 do
    fill tape planes ~order:k n;
    let n1 = I.of_float (float_of_int (n + 1)) in
    for i = 0 to dim - 1 do
      z.(i).(n + 1) <- I.div planes.(tape.outputs.(i)).(n) n1
    done
  done;
  z

let eval tape ~order:k ~time ~state ~inputs =
  Array.iter
    (fun s ->
      if Array.length s <> k + 1 then
        invalid_arg "Series.eval: state series must have order + 1 coefficients")
    state;
  let planes = planes tape ~order:k ~time ~state ~inputs in
  for n = 0 to k do
    fill tape planes ~order:k n
  done;
  Array.map (fun v -> planes.(v)) tape.outputs

let horner coeffs d =
  let n = Array.length coeffs in
  let acc = ref coeffs.(n - 1) in
  for i = n - 2 downto 0 do
    acc := I.add coeffs.(i) (I.mul d !acc)
  done;
  !acc
