type attr = Int of int | Float of float | Str of string | Bool of bool

type event = {
  name : string;
  dom : int;
  ts : float;
  dur : float;
  self : float;
  depth : int;
  attrs : (string * attr) list;
}

let enabled_flag = Atomic.make false

let epoch = Atomic.make 0.0

let enabled () = Atomic.get enabled_flag

let now_rel () = Clock.monotonic_s () -. Atomic.get epoch

let domain_id () = (Domain.self () :> int)

(* Every domain buffers its own events; the buffer registers itself in
   [registry] on the domain's first emit.  Buffers of joined domains stay
   registered, which is exactly what the merge wants. *)
let registry : event list ref list ref = ref []
[@@lint.guarded_by "registry_mutex"]

let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let buffer_key : event list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let buf = ref [] in
      with_registry (fun () -> registry := buf :: !registry);
      buf)

let emit ev =
  let buf = Domain.DLS.get buffer_key in
  buf := ev :: !buf

let clear () = with_registry (fun () -> List.iter (fun buf -> buf := []) !registry)

let enable () =
  clear ();
  Atomic.set epoch (Clock.monotonic_s ());
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let events () =
  let all = with_registry (fun () -> List.concat_map (fun buf -> !buf) !registry) in
  List.sort
    (fun a b ->
      match Float.compare a.ts b.ts with
      | 0 -> Int.compare a.dom b.dom
      | c -> c)
    all

let attr_to_json = function
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let event_to_json ev =
  Json.Obj
    [
      ("t", Json.Str "span");
      ("name", Json.Str ev.name);
      ("dom", Json.Num (float_of_int ev.dom));
      ("ts", Json.Num ev.ts);
      ("dur", Json.Num ev.dur);
      ("self", Json.Num ev.self);
      ("depth", Json.Num (float_of_int ev.depth));
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) ev.attrs));
    ]

let attr_of_json = function
  | Json.Num f when Float.is_integer f -> Int (int_of_float f)
  | Json.Num f -> Float f
  | Json.Str s -> Str s
  | Json.Bool b -> Bool b
  | _ -> raise (Json.Parse_error "unsupported attribute value")

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> raise (Json.Parse_error (Printf.sprintf "span event: missing %S" name))

let event_of_json j =
  (match Json.member "t" j with
  | Some (Json.Str "span") -> ()
  | _ -> raise (Json.Parse_error "not a span event"));
  {
    name = Json.to_str (field "name" j);
    dom = Json.to_int (field "dom" j);
    ts = Json.to_float (field "ts" j);
    dur = Json.to_float (field "dur" j);
    self = Json.to_float (field "self" j);
    depth = Json.to_int (field "depth" j);
    attrs =
      (match Json.member "attrs" j with
      | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, attr_of_json v)) kvs
      | _ -> []);
  }

let write_jsonl ?(extra = []) oc =
  let meta =
    Json.Obj
      [
        ("t", Json.Str "meta");
        ("version", Json.Num 1.0);
        ("wall_start", Json.Num 0.0);
        ("wall_end", Json.Num (now_rel ()));
      ]
  in
  output_string oc (Json.to_string meta);
  output_char oc '\n';
  List.iter
    (fun ev ->
      output_string oc (Json.to_string (event_to_json ev));
      output_char oc '\n')
    (events ());
  List.iter
    (fun line ->
      output_string oc (Json.to_string line);
      output_char oc '\n')
    extra

let write_file ?extra path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_jsonl ?extra oc)
