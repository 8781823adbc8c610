type t = { rows : int; cols : int; data : float array }

let create rows cols v =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: non-positive size";
  { rows; cols; data = Array.make (rows * cols) v }

let init rows cols f =
  let m = create rows cols 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let copy m = { m with data = Array.copy m.data }
let rows m = m.rows
let cols m = m.cols
(* inlined, so a caller's weight read stays an unboxed float; out of
   line it boxes every element (2 words a read in F#'s inner loop) *)
let[@inline] get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v
let row m i = Array.sub m.data (i * m.cols) m.cols
let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)
let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same a b name =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: dimension mismatch" name)

let add a b =
  check_same a b "add";
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  check_same a b "sub";
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let c = create a.rows b.cols 0.0 in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if (aik <> 0.0) [@lint.fp_exact "exact zero test: skips structurally-zero terms; NaN falls through conservatively"] then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. get b k j)
        done
    done
  done;
  c

let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
      done;
      !acc)

let tmul_vec m v =
  if m.rows <> Array.length v then invalid_arg "Mat.tmul_vec: dimension mismatch";
  let out = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let vi = v.(i) in
    if (vi <> 0.0) [@lint.fp_exact "exact zero test: skips structurally-zero terms; NaN falls through conservatively"] then
      for j = 0 to m.cols - 1 do
        out.(j) <- out.(j) +. (m.data.((i * m.cols) + j) *. vi)
      done
  done;
  out

let outer u v = init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))
let map f m = { m with data = Array.map f m.data }

let map_inplace f m =
  for k = 0 to Array.length m.data - 1 do
    m.data.(k) <- f m.data.(k)
  done

let add_inplace a b =
  check_same a b "add_inplace";
  for k = 0 to Array.length a.data - 1 do
    a.data.(k) <- a.data.(k) +. b.data.(k)
  done

let axpy_inplace s x y =
  check_same x y "axpy_inplace";
  for k = 0 to Array.length x.data - 1 do
    y.data.(k) <- (s *. x.data.(k)) +. y.data.(k)
  done

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let pp fmt m =
  Format.fprintf fmt "@[<v 1>[";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "@,%a" Vec.pp (row m i)
  done;
  Format.fprintf fmt "]@]"
