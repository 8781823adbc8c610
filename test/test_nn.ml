(* Networks: forward pass on the paper's worked example (Fig 4),
   serialisation round trips, gradient checks against finite differences,
   and an end-to-end training run on a small regression task. *)

module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Io = Nncs_nn.Nnet_io
module Dataset = Nncs_nn.Dataset
module Train = Nncs_nn.Train
module Mat = Nncs_linalg.Mat
module Vec = Nncs_linalg.Vec
module Rng = Nncs_linalg.Rng

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* The tiny network of Fig 4: N = (3, {2,2,1}, W, B) with
   hidden weights [[-1;4];[3;-8]], biases [5;6],
   output weights [[-0.5;1]], bias [2]. F((1,2)) = -4. *)
let fig4_network () =
  let hidden =
    {
      Net.weights = Mat.init 2 2 (fun i j -> [| [| -1.0; 4.0 |]; [| 3.0; -8.0 |] |].(i).(j));
      biases = [| 5.0; 6.0 |];
      activation = Act.Relu;
    }
  in
  let output =
    {
      Net.weights = Mat.init 1 2 (fun _ j -> [| -0.5; 1.0 |].(j));
      biases = [| 2.0 |];
      activation = Act.Linear;
    }
  in
  Net.make ~input_dim:2 [| hidden; output |]

let test_fig4_forward () =
  let net = fig4_network () in
  let y = Net.eval net [| 1.0; 2.0 |] in
  checkf "paper worked example" (-4.0) y.(0);
  Alcotest.(check int) "output dim" 1 (Net.output_dim net);
  Alcotest.(check (list int)) "layer sizes" [ 2; 2; 1 ] (Net.layer_sizes net);
  Alcotest.(check int) "parameters" 9 (Net.num_parameters net)

let test_make_validation () =
  let bad =
    {
      Net.weights = Mat.create 2 3 0.0;
      biases = [| 0.0; 0.0 |];
      activation = Act.Relu;
    }
  in
  check "bad chaining rejected" true
    (try
       ignore (Net.make ~input_dim:2 [| bad |]);
       false
     with Invalid_argument _ -> true)

let test_uid_unique () =
  let rng = Rng.create 5 in
  let a = Net.create_mlp ~rng ~layer_sizes:[ 2; 4; 1 ] in
  let b = Net.create_mlp ~rng ~layer_sizes:[ 2; 4; 1 ] in
  check "distinct networks, distinct uids" true (Net.uid a <> Net.uid b);
  check "uid is stable" true (Net.uid a = Net.uid a);
  (* a parameter transform computes a different function: fresh uid, so
     a memo table keyed on it can never serve stale results *)
  let a' = Net.map_parameters a ~f:(fun w -> 2.0 *. w) in
  check "map_parameters re-stamps the uid" true (Net.uid a' <> Net.uid a);
  check "copy re-stamps the uid" true (Net.uid (Net.copy a) <> Net.uid a)

let test_relu_kink () =
  let net = fig4_network () in
  (* input making one hidden pre-activation negative *)
  let y = Net.eval net [| 10.0; 0.0 |] in
  (* hidden: relu(-10+5)=0, relu(30+6)=36 -> out = 36 + 2 = 38 *)
  checkf "relu clamps" 38.0 y.(0)

let test_io_roundtrip () =
  let rng = Rng.create 42 in
  let net = Net.create_mlp ~rng ~layer_sizes:[ 3; 8; 5; 2 ] in
  let path = Filename.temp_file "nncs" ".nnet" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save net path;
      let net' = Io.load path in
      check "structure preserved" true (Net.equal_structure net net');
      let x = [| 0.3; -0.7; 1.1 |] in
      let y = Net.eval net x and y' = Net.eval net' x in
      check "bit-exact roundtrip" true (y = y'))

let test_io_rejects_garbage () =
  let path = Filename.temp_file "nncs" ".nnet" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a network\n1 2 3\n";
      close_out oc;
      check "garbage rejected" true
        (try
           ignore (Io.load path);
           false
         with Failure _ -> true))

(* a one-layer network over two inputs, as .nnet text: the weight row is
   line 4, the bias row line 5 *)
let nnet_text ~weights ~bias =
  Printf.sprintf "nncs-nnet 1\n1 2\n1 linear\n%s\n%s\n" weights bias

let load_text text =
  let path = Filename.temp_file "nncs" ".nnet" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      Io.load path)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_io_rejects_non_finite () =
  ignore (load_text (nnet_text ~weights:"0.5 -0.25" ~bias:"1.0"));
  List.iter
    (fun bad ->
      List.iter
        (fun (where, line, text) ->
          match load_text text with
          | _ -> Alcotest.failf "%s %s accepted" where bad
          | exception Failure msg ->
              check
                (Printf.sprintf "%s %s rejected at its line: %s" where bad msg)
                true
                (contains msg (Printf.sprintf "line %d:" line)))
        [
          ("weight", 4, nnet_text ~weights:("0.5 " ^ bad) ~bias:"1.0");
          ("bias", 5, nnet_text ~weights:"0.5 -0.25" ~bias:bad);
        ])
    [ "nan"; "inf"; "-infinity" ];
  let net = fig4_network () in
  Mat.set net.Net.layers.(1).Net.weights 0 1 Float.nan;
  let path = Filename.temp_file "nncs" ".nnet" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check "NaN weight refused on save" true
        (match Io.save net path with
        | () -> false
        | exception Invalid_argument _ -> true);
      check "nothing written" true
        (In_channel.with_open_bin path In_channel.input_all = ""))

let test_io_shipped_networks () =
  (* [dune test] runs in _build/default/test, [dune exec] in the root *)
  let dir = if Sys.file_exists "data" then "data" else Filename.concat ".." "data" in
  let nets =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".nnet")
  in
  check "the shipped networks are present" true (List.length nets = 5);
  List.iter
    (fun f ->
      let net = Io.load (Filename.concat dir f) in
      check (f ^ " has layers") true (Net.num_layers net > 0))
    nets

let test_gradient_check () =
  let rng = Rng.create 7 in
  let net = Net.create_mlp ~rng ~layer_sizes:[ 2; 4; 2 ] in
  let batch =
    [| ([| 0.5; -0.3 |], [| 1.0; 0.0 |]); ([| -0.2; 0.8 |], [| 0.0; 1.0 |]) |]
  in
  let base_loss, grads = Train.loss_and_gradients net batch in
  (* finite-difference check on a few weights of each layer *)
  let eps = 1e-6 in
  let batch_loss n =
    let acc = ref 0.0 in
    Array.iter
      (fun (x, y) ->
        let e = Vec.sub (Net.eval n x) y in
        acc := !acc +. Vec.dot e e)
      batch;
    !acc /. float_of_int (Array.length batch * 2)
  in
  checkf "loss agrees" base_loss (batch_loss net);
  Array.iteri
    (fun li l ->
      let gw, gb = grads.(li) in
      let rows = Mat.rows l.Net.weights and cols = Mat.cols l.Net.weights in
      for i = 0 to min 1 (rows - 1) do
        for j = 0 to min 1 (cols - 1) do
          let saved = Mat.get l.Net.weights i j in
          Mat.set l.Net.weights i j (saved +. eps);
          let lp = batch_loss net in
          Mat.set l.Net.weights i j (saved -. eps);
          let lm = batch_loss net in
          Mat.set l.Net.weights i j saved;
          let fd = (lp -. lm) /. (2.0 *. eps) in
          check
            (Printf.sprintf "grad w[%d][%d,%d]" li i j)
            true
            (Float.abs (fd -. Mat.get gw i j) < 1e-4)
        done
      done;
      let saved = l.Net.biases.(0) in
      l.Net.biases.(0) <- saved +. eps;
      let lp = batch_loss net in
      l.Net.biases.(0) <- saved -. eps;
      let lm = batch_loss net in
      l.Net.biases.(0) <- saved;
      let fd = (lp -. lm) /. (2.0 *. eps) in
      check (Printf.sprintf "grad b[%d]" li) true (Float.abs (fd -. gb.(0)) < 1e-4))
    net.Net.layers

let test_training_converges () =
  (* clone f(x,y) = (x + y, x * y) on [-1,1]^2 *)
  let rng = Rng.create 11 in
  let target x = [| x.(0) +. x.(1); x.(0) *. x.(1) |] in
  let data =
    Dataset.of_function ~rng ~n:800 ~lo:[| -1.0; -1.0 |] ~hi:[| 1.0; 1.0 |]
      target
  in
  let train, validation = Dataset.split ~rng ~fraction:0.8 data in
  let net = Net.create_mlp ~rng ~layer_sizes:[ 2; 24; 24; 2 ] in
  let before = Dataset.mse net validation in
  let trained, report =
    Train.fit
      ~config:{ Train.default_config with epochs = 60; learning_rate = 2e-3 }
      ~rng ~net ~train ~validation ()
  in
  check "training reduces val mse by 10x" true
    (report.final_val_mse < before /. 10.0);
  check "val mse small" true (report.final_val_mse < 0.01);
  (* spot check a prediction *)
  let p = Net.eval trained [| 0.5; 0.25 |] in
  check "prediction close" true
    (Float.abs (p.(0) -. 0.75) < 0.2 && Float.abs (p.(1) -. 0.125) < 0.2)

let test_dataset_ops () =
  let rng = Rng.create 3 in
  let d =
    Dataset.create
      (Array.init 10 (fun i -> ([| float_of_int i |], [| float_of_int (2 * i) |])))
  in
  Alcotest.(check int) "size" 10 (Dataset.size d);
  let a, b = Dataset.split ~rng ~fraction:0.7 d in
  Alcotest.(check int) "split sizes" 10 (Dataset.size a + Dataset.size b);
  let bs = Dataset.batches d ~batch_size:4 in
  Alcotest.(check (list int)) "batch sizes" [ 4; 4; 2 ]
    (List.map Array.length bs);
  let id_net = Net.create_mlp ~rng ~layer_sizes:[ 1; 4; 1 ] in
  check "mse finite" true (Float.is_finite (Dataset.mse id_net d))

let test_sgd_also_trains () =
  let rng = Rng.create 5 in
  let target x = [| (2.0 *. x.(0)) -. 1.0 |] in
  let data =
    Dataset.of_function ~rng ~n:200 ~lo:[| -1.0 |] ~hi:[| 1.0 |] target
  in
  let net = Net.create_mlp ~rng ~layer_sizes:[ 1; 8; 1 ] in
  let _, report =
    Train.fit
      ~config:
        {
          Train.default_config with
          epochs = 150;
          learning_rate = 0.05;
          optimizer = Train.Sgd { momentum = 0.9 };
        }
      ~rng ~net ~train:data ()
  in
  check "sgd converges on linear target" true (report.final_train_mse < 1e-3)


let test_block_product () =
  let rng = Rng.create 77 in
  let a = Net.create_mlp ~rng ~layer_sizes:[ 2; 6; 3 ] in
  let b = Net.create_mlp ~rng ~layer_sizes:[ 1; 4; 2 ] in
  let p = Net.block_product a b in
  Alcotest.(check int) "input dim" 3 (Net.input_dim p);
  Alcotest.(check int) "output dim" 5 (Net.output_dim p);
  for _ = 1 to 20 do
    let xa = [| Rng.gaussian rng; Rng.gaussian rng |] in
    let xb = [| Rng.gaussian rng |] in
    let y = Net.eval p (Array.append xa xb) in
    let ya = Net.eval a xa and yb = Net.eval b xb in
    check "block product = pair of evaluations" true
      (Array.append ya yb = y)
  done;
  (* depth mismatch rejected *)
  let c = Net.create_mlp ~rng ~layer_sizes:[ 1; 4; 4; 2 ] in
  check "depth mismatch rejected" true
    (try
       ignore (Net.block_product a c);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "nn"
    [
      ( "network",
        [
          Alcotest.test_case "fig4 worked example" `Quick test_fig4_forward;
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "uid unique" `Quick test_uid_unique;
          Alcotest.test_case "relu kink" `Quick test_relu_kink;
          Alcotest.test_case "block product" `Quick test_block_product;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "rejects non-finite numbers" `Quick
            test_io_rejects_non_finite;
          Alcotest.test_case "shipped networks load" `Quick
            test_io_shipped_networks;
        ] );
      ( "training",
        [
          Alcotest.test_case "gradient check" `Quick test_gradient_check;
          Alcotest.test_case "adam converges" `Slow test_training_converges;
          Alcotest.test_case "sgd converges" `Quick test_sgd_also_trains;
          Alcotest.test_case "dataset ops" `Quick test_dataset_ops;
        ] );
    ]
