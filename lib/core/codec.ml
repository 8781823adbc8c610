module Json = Nncs_obs.Json
module B = Nncs_interval.Box
module I = Nncs_interval.Interval

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let box_to_json b =
  Json.List
    (List.init (B.dim b) (fun d ->
         let iv = B.get b d in
         Json.List [ Json.Num (I.lo iv); Json.Num (I.hi iv) ]))

let fail msg = raise (Json.Parse_error msg)

let box_of_json = function
  | Json.List [] -> fail "box must have at least one dimension"
  | Json.List dims ->
      B.of_bounds
        (Array.of_list
           (List.map
              (function
                | Json.List [ lo; hi ] -> (Json.to_float lo, Json.to_float hi)
                | _ -> fail "box dimension must be a [lo, hi] pair")
              dims))
  | _ -> fail "box must be a list of [lo, hi] pairs"
