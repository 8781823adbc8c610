module J = Nncs_obs.Json
module B = Nncs_interval.Box
module T = Nncs_nnabs.Transformer
module Budget = Nncs_resilience.Budget
module Symstate = Nncs.Symstate
module Verify = Nncs.Verify
module Codec = Nncs.Codec
module Reach = Nncs.Reach

type cells_spec =
  | Explicit of Symstate.t list
  | Partition of { arcs : int; headings : int; arc_indices : int list }

type job = {
  id : string;
  cells : cells_spec;
  domain : T.domain;
  nn_splits : int;
  config : Verify.config;
  use_memo : bool;
}

type request =
  | Job of job
  | Lookup of { id : string; box : B.t; cmd : int }
  | Cancel of string
  | Stats
  | Shutdown

type source = Memo | Run | Coalesced

type lookup_status =
  | Lookup_unsafe of { k : int }
  | Lookup_safe
  | Lookup_out_of_domain
  | Lookup_unavailable

type event =
  | Accepted of { id : string; fingerprint : string }
  | Progress of { id : string; cells_done : int; total : int }
  | Verdict of {
      id : string;
      fingerprint : string;
      source : source;
      coverage : float;
      proved_cells : int;
      unknown_cells : int;
      total_cells : int;
      elapsed_s : float;
    }
  | Lookup_result of { id : string; status : lookup_status }
  | Cancelled of { id : string; reason : string }
  | Job_error of { id : string; reason : string }
  | Stats_report of J.t
  | Bye

let default_config =
  {
    Verify.default_config with
    Verify.reach = { Reach.default_config with Reach.keep_sets = false };
    max_depth = 0;
  }

let source_to_string = function
  | Memo -> "memo"
  | Run -> "run"
  | Coalesced -> "coalesced"

let lookup_status_to_string = function
  | Lookup_unsafe _ -> "unsafe"
  | Lookup_safe -> "safe"
  | Lookup_out_of_domain -> "out_of_domain"
  | Lookup_unavailable -> "unavailable"

(* ----- field accessors: every failure is a [Parse_error] so the
   request parser's single [try] turns it into an [Error reason] ----- *)

let fail fmt = Printf.ksprintf (fun s -> raise (J.Parse_error s)) fmt

let str_field name j =
  match J.member name j with
  | Some (J.Str s) -> s
  | Some _ -> fail "field %S must be a string" name
  | None -> fail "missing field %S" name

let int_field ~default name j =
  match J.member name j with Some v -> J.to_int v | None -> default

let bool_field ~default name j =
  match J.member name j with
  | Some (J.Bool b) -> b
  | Some _ -> fail "field %S must be a boolean" name
  | None -> default

let req_field name j =
  match J.member name j with Some v -> v | None -> fail "missing field %S" name

let int_opt name j = Option.map J.to_int (J.member name j)
let float_opt name j = Option.map J.to_float (J.member name j)

let int_list_opt name j =
  match J.member name j with
  | Some (J.List l) -> Some (List.map J.to_int l)
  | Some _ -> fail "field %S must be a list of integers" name
  | None -> None

let num_int n = J.Num (float_of_int n)
let int_list_json l = J.List (List.map num_int l)

(* ----- boxes and cells ----- *)

let symstate_to_json (st : Symstate.t) =
  J.Obj [ ("box", Codec.box_to_json st.Symstate.box); ("cmd", num_int st.Symstate.cmd) ]

let symstate_of_json j =
  match J.member "box" j with
  | Some b -> Symstate.make (Codec.box_of_json b) (int_field ~default:0 "cmd" j)
  | None -> fail "cell needs a \"box\" field"

let cells_of_json j =
  match (J.member "cells" j, J.member "partition" j) with
  | Some _, Some _ -> fail "job carries both \"cells\" and \"partition\""
  | Some (J.List l), None -> Explicit (List.map symstate_of_json l)
  | Some _, None -> fail "field \"cells\" must be a list"
  | None, Some p ->
      Partition
        {
          arcs = J.to_int (req_field "arcs" p);
          headings = J.to_int (req_field "headings" p);
          arc_indices = Option.value ~default:[] (int_list_opt "arc_indices" p);
        }
  | None, None -> fail "job needs \"cells\" or \"partition\""

(* ----- the analysis configuration ----- *)

let domain_of_json j =
  match J.member "domain" j with
  | Some (J.Str ("interval" | "symbolic" | "affine" as s)) ->
      T.domain_of_string s
  | Some _ -> fail "field \"domain\" must be interval | symbolic | affine"
  | None -> T.Symbolic

let config_of_json j =
  let base = default_config in
  let r = base.Verify.reach in
  let reach =
    {
      r with
      Reach.integration_steps =
        int_field ~default:r.Reach.integration_steps "m" j;
      taylor_order = int_field ~default:r.Reach.taylor_order "order" j;
      gamma = int_field ~default:r.Reach.gamma "gamma" j;
      scheme =
        (match J.member "scheme" j with
        | Some (J.Str "direct") -> Nncs_ode.Simulate.Direct
        | Some (J.Str "lohner") -> Nncs_ode.Simulate.Lohner
        | Some _ -> fail "field \"scheme\" must be direct | lohner"
        | None -> r.Reach.scheme);
      early_abort = bool_field ~default:r.Reach.early_abort "early_abort" j;
    }
  in
  let strategy =
    match (int_list_opt "split_dims" j, int_opt "split_take" j) with
    | None, None -> base.Verify.strategy
    | Some dims, None -> Verify.All_dims dims
    | Some dims, Some take -> Verify.Most_influential { candidates = dims; take }
    | None, Some _ -> fail "\"split_take\" requires \"split_dims\""
  in
  let limits =
    {
      Budget.deadline_s = float_opt "deadline_s" j;
      max_ode_steps = int_opt "max_ode_steps" j;
      max_symstates = int_opt "max_symstates" j;
    }
  in
  {
    base with
    Verify.reach;
    strategy;
    max_depth = int_field ~default:base.Verify.max_depth "max_depth" j;
    workers = int_field ~default:base.Verify.workers "workers" j;
    limits;
    degrade = bool_field ~default:base.Verify.degrade "degrade" j;
    batch_leaves = int_field ~default:base.Verify.batch_leaves "batch_leaves" j;
  }

let job_of_json j =
  {
    id = str_field "id" j;
    cells = cells_of_json j;
    domain = domain_of_json j;
    nn_splits = int_field ~default:0 "nn_splits" j;
    config = config_of_json j;
    use_memo = bool_field ~default:true "memo" j;
  }

let request_of_json j =
  try
    match J.member "t" j with
    | Some (J.Str "job") -> Ok (Job (job_of_json j))
    | Some (J.Str "lookup") ->
        Ok
          (Lookup
             {
               id = str_field "id" j;
               box = Codec.box_of_json (req_field "box" j);
               cmd = int_field ~default:0 "cmd" j;
             })
    | Some (J.Str "cancel") -> Ok (Cancel (str_field "id" j))
    | Some (J.Str "stats") -> Ok Stats
    | Some (J.Str "shutdown") -> Ok Shutdown
    | Some (J.Str other) -> Error (Printf.sprintf "unknown request type %S" other)
    | Some _ -> Error "field \"t\" must be a string"
    | None -> Error "missing request type field \"t\""
  with
  | J.Parse_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let job_to_json (job : job) =
  let c = job.config in
  let r = c.Verify.reach in
  let cells_fields =
    match job.cells with
    | Explicit l -> [ ("cells", J.List (List.map symstate_to_json l)) ]
    | Partition { arcs; headings; arc_indices } ->
        [
          ( "partition",
            J.Obj
              [
                ("arcs", num_int arcs);
                ("headings", num_int headings);
                ("arc_indices", int_list_json arc_indices);
              ] );
        ]
  in
  let strategy_fields =
    match c.Verify.strategy with
    | Verify.All_dims dims -> [ ("split_dims", int_list_json dims) ]
    | Verify.Most_influential { candidates; take } ->
        [ ("split_dims", int_list_json candidates); ("split_take", num_int take) ]
  in
  let l = c.Verify.limits in
  let limit_fields =
    (match l.Budget.deadline_s with
    | Some d -> [ ("deadline_s", J.Num d) ]
    | None -> [])
    @ (match l.Budget.max_ode_steps with
      | Some n -> [ ("max_ode_steps", num_int n) ]
      | None -> [])
    @
    match l.Budget.max_symstates with
    | Some n -> [ ("max_symstates", num_int n) ]
    | None -> []
  in
  J.Obj
    ([ ("t", J.Str "job"); ("id", J.Str job.id) ]
    @ cells_fields
    @ [
        ("domain", J.Str (T.domain_to_string job.domain));
        ("nn_splits", num_int job.nn_splits);
        ("max_depth", num_int c.Verify.max_depth);
        ("m", num_int r.Reach.integration_steps);
        ("order", num_int r.Reach.taylor_order);
        ("gamma", num_int r.Reach.gamma);
        ( "scheme",
          J.Str
            (match r.Reach.scheme with
            | Nncs_ode.Simulate.Direct -> "direct"
            | Nncs_ode.Simulate.Lohner -> "lohner") );
        ("early_abort", J.Bool r.Reach.early_abort);
      ]
    @ strategy_fields
    @ [
        ("workers", num_int c.Verify.workers);
        ("batch_leaves", num_int c.Verify.batch_leaves);
        ("degrade", J.Bool c.Verify.degrade);
        ("memo", J.Bool job.use_memo);
      ]
    @ limit_fields)

let request_to_json = function
  | Job job -> job_to_json job
  | Lookup { id; box; cmd } ->
      J.Obj
        [
          ("t", J.Str "lookup");
          ("id", J.Str id);
          ("box", Codec.box_to_json box);
          ("cmd", num_int cmd);
        ]
  | Cancel id -> J.Obj [ ("t", J.Str "cancel"); ("id", J.Str id) ]
  | Stats -> J.Obj [ ("t", J.Str "stats") ]
  | Shutdown -> J.Obj [ ("t", J.Str "shutdown") ]

let event_to_json = function
  | Accepted { id; fingerprint } ->
      J.Obj
        [
          ("t", J.Str "accepted");
          ("id", J.Str id);
          ("fingerprint", J.Str fingerprint);
        ]
  | Progress { id; cells_done; total } ->
      J.Obj
        [
          ("t", J.Str "progress");
          ("id", J.Str id);
          ("done", num_int cells_done);
          ("total", num_int total);
        ]
  | Verdict
      {
        id;
        fingerprint;
        source;
        coverage;
        proved_cells;
        unknown_cells;
        total_cells;
        elapsed_s;
      } ->
      J.Obj
        [
          ("t", J.Str "verdict");
          ("id", J.Str id);
          ("fingerprint", J.Str fingerprint);
          ("source", J.Str (source_to_string source));
          ("coverage", J.Num coverage);
          ("proved_cells", num_int proved_cells);
          ("unknown_cells", num_int unknown_cells);
          ("total_cells", num_int total_cells);
          ("elapsed_s", J.Num elapsed_s);
        ]
  | Lookup_result { id; status } ->
      J.Obj
        ([
           ("t", J.Str "lookup_result");
           ("id", J.Str id);
           ("status", J.Str (lookup_status_to_string status));
         ]
        @ match status with Lookup_unsafe { k } -> [ ("k", num_int k) ] | _ -> [])
  | Cancelled { id; reason } ->
      J.Obj
        [ ("t", J.Str "cancelled"); ("id", J.Str id); ("reason", J.Str reason) ]
  | Job_error { id; reason } ->
      J.Obj [ ("t", J.Str "error"); ("id", J.Str id); ("reason", J.Str reason) ]
  | Stats_report payload ->
      J.Obj
        (("t", J.Str "stats")
        :: (match payload with J.Obj fields -> fields | p -> [ ("payload", p) ])
        )
  | Bye -> J.Obj [ ("t", J.Str "bye") ]

let event_of_json j =
  try
    match J.member "t" j with
    | Some (J.Str "accepted") ->
        Ok
          (Accepted
             { id = str_field "id" j; fingerprint = str_field "fingerprint" j })
    | Some (J.Str "progress") ->
        Ok
          (Progress
             {
               id = str_field "id" j;
               cells_done = J.to_int (req_field "done" j);
               total = J.to_int (req_field "total" j);
             })
    | Some (J.Str "verdict") ->
        Ok
          (Verdict
             {
               id = str_field "id" j;
               fingerprint = str_field "fingerprint" j;
               source =
                 (match str_field "source" j with
                 | "memo" -> Memo
                 | "run" -> Run
                 | "coalesced" -> Coalesced
                 | s -> fail "unknown verdict source %S" s);
               coverage = J.to_float (req_field "coverage" j);
               proved_cells = J.to_int (req_field "proved_cells" j);
               unknown_cells =
                 J.to_int (req_field "unknown_cells" j);
               total_cells = J.to_int (req_field "total_cells" j);
               elapsed_s = J.to_float (req_field "elapsed_s" j);
             })
    | Some (J.Str "lookup_result") ->
        Ok
          (Lookup_result
             {
               id = str_field "id" j;
               status =
                 (match str_field "status" j with
                 | "unsafe" ->
                     Lookup_unsafe { k = J.to_int (req_field "k" j) }
                 | "safe" -> Lookup_safe
                 | "out_of_domain" -> Lookup_out_of_domain
                 | "unavailable" -> Lookup_unavailable
                 | s -> fail "unknown lookup status %S" s);
             })
    | Some (J.Str "cancelled") ->
        Ok (Cancelled { id = str_field "id" j; reason = str_field "reason" j })
    | Some (J.Str "error") ->
        Ok (Job_error { id = str_field "id" j; reason = str_field "reason" j })
    | Some (J.Str "stats") ->
        Ok
          (Stats_report
             (match j with
             | J.Obj fields ->
                 J.Obj (List.filter (fun (k, _) -> k <> "t") fields)
             | p -> p))
    | Some (J.Str "bye") -> Ok Bye
    | Some (J.Str other) -> Error (Printf.sprintf "unknown event type %S" other)
    | Some _ -> Error "field \"t\" must be a string"
    | None -> Error "missing event type field \"t\""
  with
  | J.Parse_error msg -> Error msg
  | Invalid_argument msg -> Error msg
