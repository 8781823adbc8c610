type t = Interval.t array
(* Invariant: never mutated after construction, length >= 1. *)

let of_intervals a =
  if Array.length a = 0 then invalid_arg "Box.of_intervals: empty";
  Array.copy a

let of_point p = of_intervals (Array.map Interval.of_float p)

let of_bounds b =
  of_intervals (Array.map (fun (lo, hi) -> Interval.make lo hi) b)

let dim b = Array.length b
(* [(b : t)]: a polymorphic [get] is a generic array read, never inlined *)
let get (b : t) i = b.(i)
let to_array b = Array.copy b
let lo b = Array.map Interval.lo b
let hi b = Array.map Interval.hi b
let center b = Array.map Interval.mid b

let corners b =
  let n = dim b in
  if n > 20 then invalid_arg "Box.corners: dimension too large";
  let rec go i acc =
    if i = n then acc
    else
      let lo = Interval.lo b.(i) and hi = Interval.hi b.(i) in
      let vals = if Float.equal lo hi then [ lo ] else [ lo; hi ] in
      let acc =
        List.concat_map (fun c -> List.map (fun v -> v :: c) vals) acc
      in
      go (i + 1) acc
  in
  List.map (fun c -> Array.of_list (List.rev c)) (go 0 [ [] ])

let map f b = Array.map f b
let mapi f b = Array.mapi f b

let replace (b : t) i x =
  let c = Array.copy b in
  c.(i) <- x;
  c

let contains b p =
  dim b = Array.length p
  && Array.for_all2 (fun iv v -> Interval.contains iv v) b p

let subset a b = Array.for_all2 Interval.subset a b
let intersects a b = Array.for_all2 Interval.intersects a b
let equal a b = dim a = dim b && Array.for_all2 Interval.equal a b
let hull a b = Array.map2 Interval.hull a b

let meet a b =
  let exception Empty in
  try
    Some
      (Array.map2
         (fun x y ->
           match Interval.meet x y with Some m -> m | None -> raise Empty)
         a b)
  with Empty -> None

let inflate b eps = Array.map (fun iv -> Interval.inflate iv eps) b
let widths b = Array.map Interval.width b
let max_width b = Array.fold_left (fun m iv -> Float.max m (Interval.width iv)) 0.0 b

let widest_dim b =
  let best = ref 0 and best_w = ref (Interval.width b.(0)) in
  for i = 1 to dim b - 1 do
    let w = Interval.width b.(i) in
    if w > !best_w then begin
      best := i;
      best_w := w
    end
  done;
  !best

let volume b = Array.fold_left (fun v iv -> v *. Interval.width iv) 1.0 b
[@@lint.fp_exact "size heuristic for splitting/reporting"]

let bisect b i =
  let l, r = Interval.bisect b.(i) in
  (replace b i l, replace b i r)

let bisect_widest b = bisect b (widest_dim b)

let split_dims b dims =
  let split_one boxes i =
    List.concat_map
      (fun bx ->
        let l, r = bisect bx i in
        [ l; r ])
      boxes
  in
  List.fold_left split_one [ b ] dims

let distance_centers a b =
  let ca = center a and cb = center b in
  let acc = ref 0.0 in
  Array.iteri (fun i x -> let d = x -. cb.(i) in acc := !acc +. (d *. d)) ca;
  !acc
[@@lint.fp_exact "distance heuristic for join selection"]

let pp fmt b =
  Format.fprintf fmt "@[<hov 1>(%a)@]"
    (Format.pp_print_array
       ~pp_sep:(fun f () -> Format.fprintf f "@ x@ ")
       Interval.pp)
    b

let to_string b = Format.asprintf "%a" pp b
