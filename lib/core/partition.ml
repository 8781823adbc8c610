[@@@lint.allow
  "r1 partitioning only chooses where to cut the initial set; any float \
   drift moves cell borders but every cell is still verified from its \
   exact stored bounds"]

module I = Nncs_interval.Interval
module B = Nncs_interval.Box

let grid box ~cells =
  if Array.length cells <> B.dim box then
    invalid_arg "Partition.grid: cells array does not match box dimension";
  Array.iter
    (fun c -> if c <= 0 then invalid_arg "Partition.grid: non-positive cell count")
    cells;
  let subdivide dim boxes =
    let n = cells.(dim) in
    if n = 1 then boxes
    else
      List.concat_map
        (fun b ->
          let iv = B.get b dim in
          let lo = I.lo iv and hi = I.hi iv in
          let w = (hi -. lo) /. float_of_int n in
          (* [hi -. lo] overflows to infinity on whole-range boxes (and a
             degenerate bound at infinity yields NaN): every cell bound
             derived from such a width is garbage, so fail loudly instead
             of emitting infinite/NaN cells *)
          if not (Float.is_finite w) then
            invalid_arg
              (Printf.sprintf
                 "Partition.grid: non-finite cell width in dimension %d \
                  (bounds [%h, %h])"
                 dim lo hi);
          List.init n (fun k ->
              let a = if k = 0 then lo else lo +. (float_of_int k *. w) in
              let z = if k = n - 1 then hi else lo +. (float_of_int (k + 1) *. w) in
              B.replace b dim (I.make a z)))
        boxes
  in
  let rec go dim boxes =
    if dim >= B.dim box then boxes else go (dim + 1) (subdivide dim boxes)
  in
  go 0 [ box ]

let with_command cmd boxes = List.map (fun b -> Symstate.make b cmd) boxes

let ring ~radius ~arcs ~arc_index =
  if arcs <= 0 then invalid_arg "Partition.ring: non-positive arc count";
  if arc_index < 0 || arc_index >= arcs then
    invalid_arg "Partition.ring: arc index out of range";
  let a0 = 2.0 *. Float.pi *. float_of_int arc_index /. float_of_int arcs in
  let a1 = 2.0 *. Float.pi *. float_of_int (arc_index + 1) /. float_of_int arcs in
  (* bounding box of the arc: extrema at endpoints plus any axis crossing *)
  let samples = ref [ a0; a1 ] in
  let quarter = Float.pi /. 2.0 in
  let k0 = Float.to_int (Float.floor (a0 /. quarter)) in
  let k1 = Float.to_int (Float.ceil (a1 /. quarter)) in
  for k = k0 to k1 do
    let a = float_of_int k *. quarter in
    if a > a0 && a < a1 then samples := a :: !samples
  done;
  let xs = List.map (fun a -> radius *. Float.cos a) !samples in
  let ys = List.map (fun a -> radius *. Float.sin a) !samples in
  let min l = List.fold_left Float.min (List.hd l) l in
  let max l = List.fold_left Float.max (List.hd l) l in
  ((min xs, max xs), (min ys, max ys))
