module Mat = Nncs_linalg.Mat
module Vec = Nncs_linalg.Vec

let magic = "nncs-nnet"
let version = 1

(* Verdicts are only as sound as the weights: a NaN or infinite one
   makes every enclosure the network feeds NaN or unbounded, so the file
   format carries finite numbers only, in both directions. *)
let check_finite net =
  Array.iteri
    (fun k l ->
      let w = l.Network.weights in
      for i = 0 to Mat.rows w - 1 do
        for j = 0 to Mat.cols w - 1 do
          let x = Mat.get w i j in
          if not (Float.is_finite x) then
            invalid_arg
              (Printf.sprintf "Nnet_io: layer %d weight (%d, %d) is %h" k i j x)
        done
      done;
      Array.iteri
        (fun i b ->
          if not (Float.is_finite b) then
            invalid_arg (Printf.sprintf "Nnet_io: layer %d bias %d is %h" k i b))
        l.Network.biases)
    net.Network.layers

let write oc net =
  Printf.fprintf oc "// nncs network, %d parameters\n" (Network.num_parameters net);
  Printf.fprintf oc "%s %d\n" magic version;
  Printf.fprintf oc "%d %d\n" (Network.num_layers net) (Network.input_dim net);
  Array.iter
    (fun l ->
      Printf.fprintf oc "%d %s\n" (Mat.rows l.Network.weights)
        (Activation.to_string l.Network.activation))
    net.Network.layers;
  Array.iter
    (fun l ->
      let w = l.Network.weights in
      for i = 0 to Mat.rows w - 1 do
        for j = 0 to Mat.cols w - 1 do
          if j > 0 then output_char oc ' ';
          Printf.fprintf oc "%h" (Mat.get w i j)
        done;
        output_char oc '\n'
      done;
      let b = l.Network.biases in
      for i = 0 to Vec.dim b - 1 do
        if i > 0 then output_char oc ' ';
        Printf.fprintf oc "%h" b.(i)
      done;
      output_char oc '\n')
    net.Network.layers

let to_channel oc net =
  check_finite net;
  write oc net

let save net path =
  check_finite net;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write oc net)

let fail fmt = Printf.ksprintf failwith fmt

let of_channel ic =
  let line_no = ref 0 in
  let rec next_line () =
    let l = try input_line ic with End_of_file -> fail "nnet: unexpected end of file" in
    incr line_no;
    let l = String.trim l in
    if l = "" || String.length l >= 2 && String.sub l 0 2 = "//" then next_line ()
    else l
  in
  let words l = String.split_on_char ' ' l |> List.filter (fun s -> s <> "") in
  let parse_float s =
    let x =
      try float_of_string s
      with Failure _ -> fail "nnet: line %d: bad float %S" !line_no s
    in
    if Float.is_finite x then x
    else fail "nnet: line %d: non-finite number %S" !line_no s
  in
  let parse_int s =
    try int_of_string s
    with Failure _ -> fail "nnet: line %d: bad integer %S" !line_no s
  in
  (match words (next_line ()) with
  | [ m; v ] when m = magic ->
      if parse_int v <> version then fail "nnet: unsupported version %s" v
  | _ -> fail "nnet: line %d: bad magic" !line_no);
  let num_layers, input_dim =
    match words (next_line ()) with
    | [ n; d ] -> (parse_int n, parse_int d)
    | _ -> fail "nnet: line %d: expected <num_layers> <input_dim>" !line_no
  in
  if num_layers <= 0 || input_dim <= 0 then
    fail "nnet: non-positive layer count or input dimension";
  let headers =
    Array.init num_layers (fun _ ->
        match words (next_line ()) with
        | [ size; act ] -> (parse_int size, Activation.of_string act)
        | _ -> fail "nnet: line %d: expected <size> <activation>" !line_no)
  in
  let prev = ref input_dim in
  let layers =
    Array.map
      (fun (size, activation) ->
        let in_size = !prev in
        let weights = Mat.create size in_size 0.0 in
        for i = 0 to size - 1 do
          let row = words (next_line ()) in
          if List.length row <> in_size then
            fail "nnet: line %d: expected %d weights, got %d" !line_no in_size
              (List.length row);
          List.iteri (fun j s -> Mat.set weights i j (parse_float s)) row
        done;
        let brow = words (next_line ()) in
        if List.length brow <> size then
          fail "nnet: line %d: expected %d biases, got %d" !line_no size
            (List.length brow);
        let biases = Array.of_list (List.map parse_float brow) in
        prev := size;
        { Network.weights; biases; activation })
      headers
  in
  Network.make ~input_dim layers

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try of_channel ic
      with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg))
