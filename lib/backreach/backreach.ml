module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module Json = Nncs_obs.Json
module Journal = Nncs_resilience.Journal
module Firewall = Nncs_resilience.Firewall
module Command = Nncs.Command
module Symstate = Nncs.Symstate
module Spec = Nncs.Spec
module System = Nncs.System
module Controller = Nncs.Controller
module Reach = Nncs.Reach
module Verify = Nncs.Verify
module Codec = Nncs.Codec
module Partition = Nncs.Partition

type config = {
  domain : B.t;
  grid : int array;
  reach : Reach.config;
  workers : int;
  escape_unsafe : bool;
}

let default_config ~domain ~grid =
  {
    domain;
    grid;
    reach = Reach.default_config;
    workers = 1;
    escape_unsafe = false;
  }

(* Per-quantized-state transition record: exactly what the journal
   persists, and all the BFS needs.  A [failed] state was firewalled and
   conservatively seeded as a contact. *)
type sinfo = {
  si_contact : bool;
  si_terminal : bool;
  si_escapes : bool;
  si_failed : bool;
  si_succs : int array;
}

type t = {
  t_domain : B.t;
  t_grid : int array;
  t_edges : float array array;  (* t_edges.(d): grid.(d) + 1 boundaries *)
  t_ncmds : int;
  t_escape_unsafe : bool;
  t_fingerprint : string;
  t_unsafe : (int, int) Hashtbl.t;  (* state id -> min sweeps to contact *)
  t_nstates : int;
  t_sweeps : int;
  t_build_s : float;
  t_failed : int;
  t_escaped : int;
}

let num_states t = t.t_nstates
let num_unsafe t = Hashtbl.length t.t_unsafe
let sweeps t = t.t_sweeps
let build_seconds t = t.t_build_s
let failed_states t = t.t_failed
let escaped_states t = t.t_escaped
let table_fingerprint t = t.t_fingerprint

(* ----- grid geometry ----- *)

let validate_config config =
  let d = B.dim config.domain in
  if d = 0 then invalid_arg "Backreach: empty domain";
  if Array.length config.grid <> d then
    invalid_arg "Backreach: grid/domain dimension mismatch";
  Array.iteri
    (fun i n ->
      if n < 1 then
        invalid_arg (Printf.sprintf "Backreach: grid.(%d) < 1" i))
    config.grid;
  if config.workers < 1 then invalid_arg "Backreach: workers < 1"

(* Cell boundaries per dimension, derived by running [Partition.grid] on
   the 1-D sub-box: the floats are bit-identical to the boundaries of
   the full grid, so build-time cells and lookup-time covering tests can
   never disagree by a rounding ulp. *)
let edges_of ~domain ~grid =
  Array.init (B.dim domain) (fun d ->
      let n = grid.(d) in
      let cells1 =
        Partition.grid (B.of_intervals [| B.get domain d |]) ~cells:[| n |]
      in
      let e = Array.make (n + 1) 0.0 in
      List.iteri
        (fun k b ->
          e.(k) <- I.lo (B.get b 0);
          e.(k + 1) <- I.hi (B.get b 0))
        cells1;
      e)

(* [Partition.grid] enumerates row-major with dimension 0 slowest; the
   linear cell index follows the same order. *)
let cell_box edges grid c =
  let d = Array.length grid in
  let idx = Array.make d 0 in
  let rem = ref c in
  for i = d - 1 downto 0 do
    idx.(i) <- !rem mod grid.(i);
    rem := !rem / grid.(i)
  done;
  B.of_bounds
    (Array.init d (fun i -> (edges.(i).(idx.(i)), edges.(i).(idx.(i) + 1))))

(* Cells along one dimension whose interval overlaps [blo, bhi]: strict
   interior overlap, except that degenerate intervals (a point cell from
   a 1-cell degenerate dimension, or a point query) count by
   coincidence.  Sharing a face alone is not overlap — an endpoint
   enclosure ending exactly on a boundary covers one cell, not two. *)
let dim_overlap_ks edges n blo bhi =
  let ks = ref [] in
  for k = n - 1 downto 0 do
    let alo = edges.(k) and ahi = edges.(k + 1) in
    let lo = Float.max alo blo and hi = Float.min ahi bhi in
    if
      (lo < hi || (lo = hi && (alo = ahi || blo = bhi)))
      [@lint.fp_exact
        "degenerate-interval coincidence: point cells and point queries \
         overlap exactly when their edges are bit-identical"]
    then ks := k :: !ks
  done;
  !ks

(* Covering cells of [box] (linear indices), plus whether part of [box]
   lies outside the domain. *)
let covering_cells ~edges ~grid ~domain box =
  let d = Array.length grid in
  let escapes = ref false in
  let per_dim =
    Array.init d (fun i ->
        let iv = B.get box i and dv = B.get domain i in
        if I.lo iv < I.lo dv || I.hi iv > I.hi dv then escapes := true;
        dim_overlap_ks edges.(i) grid.(i) (I.lo iv) (I.hi iv))
  in
  let cells =
    if Array.exists (fun ks -> ks = []) per_dim then []
    else
      Array.to_seq per_dim
      |> Seq.fold_lefti
           (fun acc i ks ->
             List.concat_map
               (fun p -> List.map (fun k -> (p * grid.(i)) + k) ks)
               acc)
           [ 0 ]
  in
  (cells, !escapes)

(* ----- fingerprint ----- *)

(* FNV-1a 64 over a canonical rendering of everything the table depends
   on.  Deliberately mirrors [Verify.fingerprint]'s blind spot: network
   weights are NOT hashed, so a table only answers for the network set
   it was built with — the documented caveat of DESIGN.md §16. *)
let fingerprint config sys =
  validate_config config;
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let addfl x = addf "%.17g;" x in
  addf "backreach:v1;";
  let d = B.dim config.domain in
  for i = 0 to d - 1 do
    addfl (I.lo (B.get config.domain i));
    addfl (I.hi (B.get config.domain i))
  done;
  Array.iter (addf "g%d;") config.grid;
  let cmds = sys.System.controller.Controller.commands in
  addf "commands:%d:%d;" (Command.size cmds) (Command.dim cmds);
  for i = 0 to Command.size cmds - 1 do
    Array.iter addfl (Command.value cmds i)
  done;
  addfl sys.System.controller.Controller.period;
  let r = config.reach in
  addf "flow:%d:%d:%s;" r.Reach.integration_steps r.Reach.taylor_order
    (match r.Reach.scheme with
    | Nncs_ode.Simulate.Direct -> "direct"
    | Nncs_ode.Simulate.Lohner -> "lohner");
  addf "nn:%s:%d;"
    (match sys.System.controller.Controller.domain with
    | Nncs_nnabs.Transformer.Interval -> "interval"
    | Nncs_nnabs.Transformer.Symbolic -> "symbolic"
    | Nncs_nnabs.Transformer.Affine -> "affine")
    sys.System.controller.Controller.nn_splits;
  addf "escape:%b;" config.escape_unsafe;
  addf "erroneous:%s;target:%s;" sys.System.erroneous.Spec.name
    sys.System.target.Spec.name;
  (* Spec names alone would collide across parameterizations (the bound
     is not in the name); probe each cell midpoint per command instead,
     like [Verify.fingerprint]'s per-cell probes. *)
  let edges = edges_of ~domain:config.domain ~grid:config.grid in
  let ncells = Array.fold_left ( * ) 1 config.grid in
  let mid (b : B.t) =
    Array.init (B.dim b) (fun i ->
        let iv = B.get b i in
        ((I.lo iv +. I.hi iv) /. 2.0)
        [@lint.fp_exact "fingerprint probe point: any in-cell point works"])
  in
  for c = 0 to ncells - 1 do
    let m = mid (cell_box edges config.grid c) in
    for u = 0 to Command.size cmds - 1 do
      addf "%b%b" (sys.System.erroneous.Spec.contains_point m u)
        (sys.System.target.Spec.contains_point m u)
    done
  done;
  Codec.fnv1a64 (Buffer.contents buf)

(* ----- journal records ----- *)

let num_int n = Json.Num (float_of_int n)

let meta_json ~fingerprint ~grid ~domain ~ncmds ~escape_unsafe ~nstates =
  Json.Obj
    [
      ("t", Json.Str "backreach-meta");
      ("v", num_int 1);
      ("fingerprint", Json.Str fingerprint);
      ("grid", Json.List (Array.to_list (Array.map num_int grid)));
      ("domain", Codec.box_to_json domain);
      ("commands", num_int ncmds);
      ("escape_unsafe", Json.Bool escape_unsafe);
      ("states", num_int nstates);
    ]

let trans_json id (si : sinfo) =
  Json.Obj
    [
      ("t", Json.Str "trans");
      ("id", num_int id);
      ("contact", Json.Bool si.si_contact);
      ("terminal", Json.Bool si.si_terminal);
      ("escapes", Json.Bool si.si_escapes);
      ("failed", Json.Bool si.si_failed);
      ( "succs",
        Json.List (Array.to_list (Array.map num_int si.si_succs)) );
    ]

let trans_of_json j =
  let open Json in
  match (member "id" j, member "succs" j) with
  | Some id, Some (List succs) ->
      let b k = match member k j with Some (Bool v) -> v | _ -> false in
      Some
        ( to_int id,
          {
            si_contact = b "contact";
            si_terminal = b "terminal";
            si_escapes = b "escapes";
            si_failed = b "failed";
            si_succs = Array.of_list (List.map to_int succs);
          } )
  | _ -> None

(* ----- the one-period backward transition ----- *)

let compute_state ~config ~edges sys id =
  let cmds = sys.System.controller.Controller.commands in
  let ncmds = Command.size cmds in
  let cell = id / ncmds and cmd = id mod ncmds in
  let box = cell_box edges config.grid cell in
  let st = Symstate.make box cmd in
  let contact0 = sys.System.erroneous.Spec.intersects_box st in
  if sys.System.target.Spec.contains_box st then
    (* fully home: the forward analysis stops propagating such states,
       so backward they have no successors *)
    {
      si_contact = contact0;
      si_terminal = true;
      si_escapes = false;
      si_failed = false;
      si_succs = [||];
    }
  else
    let step () =
      let r = config.reach in
      let sim =
        Nncs_ode.Simulate.simulate ~scheme:r.Reach.scheme sys.System.plant
          ~t0:0.0
          ~period:sys.System.controller.Controller.period
          ~steps:r.Reach.integration_steps ~order:r.Reach.taylor_order
          ~state:box
          ~inputs:(Command.value_box cmds cmd)
      in
      let touches b =
        sys.System.erroneous.Spec.intersects_box (Symstate.make b cmd)
      in
      let flow_contact =
        Array.exists touches sim.Nncs_ode.Simulate.pieces
        || touches sim.Nncs_ode.Simulate.endpoint
      in
      let next_cmds =
        Controller.abstract_step sys.System.controller
          ~box:sim.Nncs_ode.Simulate.endpoint ~prev_cmd:cmd
      in
      let cells, escapes =
        covering_cells ~edges ~grid:config.grid ~domain:config.domain
          sim.Nncs_ode.Simulate.endpoint
      in
      let succs =
        List.concat_map
          (fun c -> List.map (fun u -> (c * ncmds) + u) next_cmds)
          cells
      in
      (flow_contact, escapes, Array.of_list succs)
    in
    match Firewall.protect ~classify:Reach.classify step with
    | Ok (flow_contact, escapes, succs) ->
        {
          si_contact =
            contact0 || flow_contact || (escapes && config.escape_unsafe);
          si_terminal = false;
          si_escapes = escapes;
          si_failed = false;
          si_succs = succs;
        }
    | Error _ ->
        (* cannot bound this state's successors: conservatively a
           contact, so anything that can reach it is flagged unsafe *)
        {
          si_contact = true;
          si_terminal = false;
          si_escapes = false;
          si_failed = true;
          si_succs = [||];
        }

(* ----- backward fixed point ----- *)

(* Level-synchronous BFS over the reversed successor relation: sweep k
   adds every state one more control period from contact.  Returns the
   table and the last non-empty sweep index. *)
let fixed_point ?writer infos =
  let n = Array.length infos in
  let preds = Array.make n [] in
  Array.iteri
    (fun i si -> Array.iter (fun s -> preds.(s) <- i :: preds.(s)) si.si_succs)
    infos;
  let k_of = Array.make n (-1) in
  let seed = ref [] in
  Array.iteri
    (fun i si ->
      if si.si_contact then begin
        k_of.(i) <- 0;
        seed := i :: !seed
      end)
    infos;
  let jwrite j = Option.iter (fun w -> Journal.write w j) writer in
  let rec go k frontier last =
    match frontier with
    | [] -> last
    | _ ->
        jwrite
          (Json.Obj
             [
               ("t", Json.Str "sweep");
               ("k", num_int k);
               ("added", num_int (List.length frontier));
             ]);
        let next =
          List.fold_left
            (fun acc s ->
              List.fold_left
                (fun acc p ->
                  if k_of.(p) < 0 then begin
                    k_of.(p) <- k + 1;
                    p :: acc
                  end
                  else acc)
                acc preds.(s))
            [] frontier
        in
        go (k + 1) next k
  in
  let last = go 0 !seed 0 in
  let unsafe = Hashtbl.create (max 16 (n / 4)) in
  Array.iteri (fun i k -> if k >= 0 then Hashtbl.add unsafe i k) k_of;
  (unsafe, last)

let table_of_infos ?writer ~config ~edges ~fp ~ncmds ~build_s infos =
  let unsafe, last_sweep = fixed_point ?writer infos in
  let count p = Array.fold_left (fun a si -> if p si then a + 1 else a) 0 infos in
  {
    t_domain = config.domain;
    t_grid = config.grid;
    t_edges = edges;
    t_ncmds = ncmds;
    t_escape_unsafe = config.escape_unsafe;
    t_fingerprint = fp;
    t_unsafe = unsafe;
    t_nstates = Array.length infos;
    t_sweeps = (if Hashtbl.length unsafe = 0 then 0 else last_sweep);
    t_build_s = build_s;
    t_failed = count (fun si -> si.si_failed);
    t_escaped = count (fun si -> si.si_escapes);
  }

let build ?journal ?(resume = false) ?progress config sys =
  validate_config config;
  if B.dim config.domain <> sys.System.plant.Nncs_ode.Ode.dim then
    invalid_arg "Backreach.build: domain/plant dimension mismatch";
  let started = Nncs_obs.Clock.monotonic_s () in
  let edges = edges_of ~domain:config.domain ~grid:config.grid in
  let ncells = Array.fold_left ( * ) 1 config.grid in
  let ncmds = Command.size sys.System.controller.Controller.commands in
  let nstates = ncells * ncmds in
  let fp = fingerprint config sys in
  let infos : sinfo option array = Array.make nstates None in
  (* resume: replay transition records from a matching journal so only
     the missing states are recomputed *)
  let appending =
    match journal with
    | Some path when resume && Sys.file_exists path ->
        let records = Journal.load path in
        let meta_fp =
          List.find_map
            (fun j ->
              match Json.member "t" j with
              | Some (Json.Str "backreach-meta") ->
                  Option.map Json.to_str (Json.member "fingerprint" j)
              | _ -> None)
            records
        in
        (match meta_fp with
        | Some f when f <> fp ->
            invalid_arg
              "Backreach.build: journal fingerprint mismatch (different \
               system or config); delete the journal or drop --resume"
        | Some _ ->
            List.iter
              (fun j ->
                match Json.member "t" j with
                | Some (Json.Str "trans") -> (
                    match trans_of_json j with
                    | Some (id, si) when id >= 0 && id < nstates ->
                        infos.(id) <- Some si
                    | _ -> ())
                | _ -> ())
              records
        | None -> ());
        meta_fp <> None
    | _ -> false
  in
  let writer = Option.map (fun p -> Journal.create ~append:appending p) journal in
  if not appending then
    Option.iter
      (fun w ->
        Journal.write w
          (meta_json ~fingerprint:fp ~grid:config.grid ~domain:config.domain
             ~ncmds ~escape_unsafe:config.escape_unsafe ~nstates))
      writer;
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close writer)
    (fun () ->
      (* one ticket per state id; every slot is written by exactly one
         worker, the join publishes them all to this domain *)
      let ticket = Atomic.make 0 in
      let done_count = Atomic.make 0 in
      let progress_mutex = Mutex.create () in
      let note_done () =
        let d = Atomic.fetch_and_add done_count 1 + 1 in
        Option.iter
          (fun f ->
            Mutex.lock progress_mutex;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock progress_mutex)
              (fun () -> f ~done_states:d ~total:nstates))
          progress
      in
      let worker () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add ticket 1 in
          if i >= nstates then continue := false
          else begin
            (match infos.(i) with
            | Some _ -> ()
            | None ->
                let si = compute_state ~config ~edges sys i in
                infos.(i) <- Some si;
                Option.iter (fun w -> Journal.write w (trans_json i si)) writer);
            note_done ()
          end
        done
      in
      let spawned =
        List.init (config.workers - 1) (fun _ -> Domain.spawn worker)
      in
      worker ();
      List.iter Domain.join spawned;
      let infos =
        Array.map
          (function
            | Some si -> si
            | None -> assert false (* every ticket was drained *))
          infos
      in
      let build_s = Nncs_obs.Clock.elapsed_s ~since:started in
      let t = table_of_infos ?writer ~config ~edges ~fp ~ncmds ~build_s infos in
      Option.iter
        (fun w ->
          Journal.write w
            (Json.Obj
               [
                 ("t", Json.Str "done");
                 ("unsafe", num_int (Hashtbl.length t.t_unsafe));
                 ("sweeps", num_int t.t_sweeps);
                 ("build_s", Json.Num build_s);
               ]))
        writer;
      t)

(* ----- queries ----- *)

type verdict = Unsafe of { k : int } | Safe | Out_of_domain

let state_k t cell cmd = Hashtbl.find_opt t.t_unsafe ((cell * t.t_ncmds) + cmd)

(* covering cells of a box fully inside the domain; None when the box
   leaves the domain or does not typecheck against it *)
let covering_in_domain t box cmd =
  if
    cmd < 0 || cmd >= t.t_ncmds
    || B.dim box <> B.dim t.t_domain
    || not (B.subset box t.t_domain)
  then None
  else
    let cells, _ =
      covering_cells ~edges:t.t_edges ~grid:t.t_grid ~domain:t.t_domain box
    in
    Some cells

let query t ~box ~cmd =
  match covering_in_domain t box cmd with
  | None -> Out_of_domain
  | Some cells ->
      let k =
        List.fold_left
          (fun acc c ->
            match (state_k t c cmd, acc) with
            | Some k, Some m -> Some (min k m)
            | Some k, None -> Some k
            | None, acc -> acc)
          None cells
      in
      (match k with Some k -> Unsafe { k } | None -> Safe)

(* ----- persistence ----- *)

let save_table t path =
  Journal.with_writer path (fun w ->
      Journal.write w
        (meta_json ~fingerprint:t.t_fingerprint ~grid:t.t_grid
           ~domain:t.t_domain ~ncmds:t.t_ncmds
           ~escape_unsafe:t.t_escape_unsafe ~nstates:t.t_nstates);
      let entries =
        Hashtbl.fold (fun id k acc -> (id, k) :: acc) t.t_unsafe []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      List.iter
        (fun (id, k) ->
          let cell = id / t.t_ncmds and cmd = id mod t.t_ncmds in
          Journal.write w
            (Json.Obj
               [
                 ("t", Json.Str "unsafe");
                 ("cell", num_int cell);
                 ("cmd", num_int cmd);
                 ("k", num_int k);
                 ("box", Codec.box_to_json (cell_box t.t_edges t.t_grid cell));
               ]))
        entries;
      Journal.write w
        (Json.Obj
           [
             ("t", Json.Str "table-end");
             ("unsafe", num_int (List.length entries));
           ]))

let load path =
  match Journal.load path with
  | exception Sys_error e -> Error e
  | records -> (
      let tag j =
        match Json.member "t" j with Some (Json.Str s) -> s | _ -> ""
      in
      match List.find_opt (fun j -> tag j = "backreach-meta") records with
      | None -> Error "no backreach-meta record (not a backreach artifact?)"
      | Some meta -> (
          try
            let ints k =
              match Json.member k meta with
              | Some (Json.List l) -> List.map Json.to_int l
              | _ -> failwith ("meta missing " ^ k)
            in
            let grid = Array.of_list (ints "grid") in
            let domain =
              match Json.member "domain" meta with
              | Some d -> Codec.box_of_json d
              | None -> failwith "meta missing domain"
            in
            let req k =
              match Json.member k meta with
              | Some v -> v
              | None -> failwith ("meta missing " ^ k)
            in
            let ncmds = Json.to_int (req "commands") in
            let nstates = Json.to_int (req "states") in
            let escape_unsafe =
              match req "escape_unsafe" with Json.Bool b -> b | _ -> false
            in
            let fp =
              match req "fingerprint" with
              | Json.Str s -> s
              | _ -> failwith "meta: malformed fingerprint"
            in
            let edges = edges_of ~domain ~grid in
            let trans = List.filter (fun j -> tag j = "trans") records in
            if trans <> [] then begin
              (* a build journal: re-derive the fixed point *)
              let infos = Array.make nstates None in
              List.iter
                (fun j ->
                  match trans_of_json j with
                  | Some (id, si) when id >= 0 && id < nstates ->
                      infos.(id) <- Some si
                  | _ -> ())
                trans;
              let missing =
                Array.fold_left
                  (fun a s -> if s = None then a + 1 else a)
                  0 infos
              in
              if missing > 0 then
                failwith
                  (Printf.sprintf
                     "incomplete build journal (%d/%d states missing): finish \
                      it with --resume"
                     missing nstates);
              let infos = Array.map Option.get infos in
              let build_s =
                List.fold_left
                  (fun acc j ->
                    if tag j = "done" then
                      match Json.member "build_s" j with
                      | Some v -> Json.to_float v
                      | None -> acc
                    else acc)
                  0.0 records
              in
              let config =
                { (default_config ~domain ~grid) with escape_unsafe }
              in
              Ok (table_of_infos ~config ~edges ~fp ~ncmds ~build_s infos)
            end
            else begin
              (* a compact table artifact: entries as-is, trailer checked *)
              let unsafe = Hashtbl.create 256 in
              let max_k = ref 0 in
              List.iter
                (fun j ->
                  if tag j = "unsafe" then begin
                    let cell = Json.to_int (Option.get (Json.member "cell" j)) in
                    let cmd = Json.to_int (Option.get (Json.member "cmd" j)) in
                    let k = Json.to_int (Option.get (Json.member "k" j)) in
                    if cell < 0 || cmd < 0 || cmd >= ncmds then
                      failwith "malformed unsafe entry";
                    Hashtbl.replace unsafe ((cell * ncmds) + cmd) k;
                    if k > !max_k then max_k := k
                  end)
                records;
              let trailer =
                List.fold_left
                  (fun acc j ->
                    if tag j = "table-end" then
                      Option.map Json.to_int (Json.member "unsafe" j)
                    else acc)
                  None records
              in
              (match trailer with
              | Some n when n = Hashtbl.length unsafe -> ()
              | Some n ->
                  failwith
                    (Printf.sprintf
                       "table-end count %d does not match %d entries \
                        (truncated table?)"
                       n (Hashtbl.length unsafe))
              | None ->
                  failwith "missing table-end trailer (truncated table?)");
              Ok
                {
                  t_domain = domain;
                  t_grid = grid;
                  t_edges = edges;
                  t_ncmds = ncmds;
                  t_escape_unsafe = escape_unsafe;
                  t_fingerprint = fp;
                  t_unsafe = unsafe;
                  t_nstates = nstates;
                  t_sweeps = !max_k;
                  t_build_s = 0.0;
                  t_failed = 0;
                  t_escaped = 0;
                }
            end
          with
          | Failure e -> Error e
          | Json.Parse_error e -> Error e
          | Invalid_argument e -> Error e))

(* ----- forward cross-check ----- *)

type finding_kind =
  | Safe_in_backreach of { k : int }
  | Unsafe_not_in_backreach of { step : int }

type finding = {
  f_cell : int;
  f_cmd : int;
  f_box : B.t;
  f_kind : finding_kind;
}

type cross_check = {
  findings : finding list;
  checked_safe : int;
  checked_unsafe : int;
  skipped : int;
}

let check_forward t (report : Verify.report) =
  let findings = ref [] in
  let checked_safe = ref 0 and checked_unsafe = ref 0 and skipped = ref 0 in
  List.iter
    (fun (cell : Verify.cell_report) ->
      match cell.Verify.leaves with
      | [] -> incr skipped
      | first :: _ as leaves -> (
          let cmd = first.Verify.state.Symstate.cmd in
          let box =
            List.fold_left
              (fun acc (l : Verify.leaf) -> B.hull acc l.Verify.state.Symstate.box)
              first.Verify.state.Symstate.box leaves
          in
          match covering_in_domain t box cmd with
          | None -> incr skipped
          | Some cells ->
              let ks = List.filter_map (fun c -> state_k t c cmd) cells in
              let all_proved =
                List.for_all (fun (l : Verify.leaf) -> l.Verify.proved) leaves
              in
              let min_error_step =
                List.fold_left
                  (fun acc (l : Verify.leaf) ->
                    match l.Verify.result with
                    | Verify.Completed (Reach.Reached_error { step }) -> (
                        match acc with
                        | Some s -> Some (min s step)
                        | None -> Some step)
                    | _ -> acc)
                  None leaves
              in
              if all_proved then begin
                incr checked_safe;
                (* forward: NO trajectory reaches E.  Flag only when the
                   table claims every covering quantized state may reach
                   E — a partial overlap is ordinary quantization slack. *)
                if List.length ks = List.length cells then
                  let k = List.fold_left min (List.hd ks) ks in
                  findings :=
                    {
                      f_cell = cell.Verify.index;
                      f_cmd = cmd;
                      f_box = box;
                      f_kind = Safe_in_backreach { k };
                    }
                    :: !findings
              end
              else
                match min_error_step with
                | Some step ->
                    incr checked_unsafe;
                    (* the table proves E unreachable from every covering
                       state, yet forward touched it: one of the two
                       analyses is wrong *)
                    if ks = [] then
                      findings :=
                        {
                          f_cell = cell.Verify.index;
                          f_cmd = cmd;
                          f_box = box;
                          f_kind = Unsafe_not_in_backreach { step };
                        }
                        :: !findings
                | None -> incr skipped))
    report.Verify.cells;
  {
    findings = List.rev !findings;
    checked_safe = !checked_safe;
    checked_unsafe = !checked_unsafe;
    skipped = !skipped;
  }

let finding_to_json f =
  let kind, extra =
    match f.f_kind with
    | Safe_in_backreach { k } -> ("safe_in_backreach", ("k", num_int k))
    | Unsafe_not_in_backreach { step } ->
        ("unsafe_not_in_backreach", ("step", num_int step))
  in
  Json.Obj
    [
      ("t", Json.Str "oracle_disagreement");
      ("cell", num_int f.f_cell);
      ("cmd", num_int f.f_cmd);
      ("kind", Json.Str kind);
      extra;
      ("box", Codec.box_to_json f.f_box);
    ]

let cross_check_to_json c =
  Json.Obj
    [
      ("t", Json.Str "cross-check");
      ("checked_safe", num_int c.checked_safe);
      ("checked_unsafe", num_int c.checked_unsafe);
      ("skipped", num_int c.skipped);
      ("disagreements", num_int (List.length c.findings));
      ("findings", Json.List (List.map finding_to_json c.findings));
    ]
