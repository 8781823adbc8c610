type counter = { c_name : string; cell : int Atomic.t }

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
}

(* The registry is mutated only on instrument creation (module init in
   practice); reads during [snapshot] take the same lock.  Updates to the
   instruments themselves never lock. *)
let registry_mutex = Mutex.create ()

let counters : counter list ref = ref []
[@@lint.guarded_by "registry_mutex"]

let histograms : histogram list ref = ref []
[@@lint.guarded_by "registry_mutex"]

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counter name =
  with_registry (fun () ->
      match List.find_opt (fun c -> c.c_name = name) !counters with
      | Some c -> c
      | None ->
          let c = { c_name = name; cell = Atomic.make 0 } in
          counters := c :: !counters;
          c)

let incr c = Atomic.incr c.cell

let add c n = ignore (Atomic.fetch_and_add c.cell n)

let value c = Atomic.get c.cell

(* lock-free float update: retry the CAS with the physically-same boxed
   value we read, as usual for [float Atomic.t] *)
let rec update_float cell f =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (f cur)) then update_float cell f

let histogram name =
  with_registry (fun () ->
      match List.find_opt (fun h -> h.h_name = name) !histograms with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              h_count = Atomic.make 0;
              h_sum = Atomic.make 0.0;
              h_min = Atomic.make Float.infinity;
              h_max = Atomic.make Float.neg_infinity;
            }
          in
          histograms := h :: !histograms;
          h)

let observe h x =
  Atomic.incr h.h_count;
  update_float h.h_sum (fun s -> s +. x);
  update_float h.h_min (fun m -> Float.min m x);
  update_float h.h_max (fun m -> Float.max m x)

type hist_stats = { count : int; sum : float; min : float; max : float }

let hist_value h =
  {
    count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
    min = Atomic.get h.h_min;
    max = Atomic.get h.h_max;
  }

type snapshot = {
  counters : (string * int) list;
  histograms : (string * hist_stats) list;
}

let snapshot () =
  with_registry (fun () ->
      {
        counters =
          List.sort compare
            (List.map (fun c -> (c.c_name, value c)) !counters);
        histograms =
          List.sort
            (fun (a, _) (b, _) -> compare a b)
            (List.map (fun h -> (h.h_name, hist_value h)) !histograms);
      })

let reset () =
  with_registry (fun () ->
      List.iter (fun c -> Atomic.set c.cell 0) !counters;
      List.iter
        (fun h ->
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0.0;
          Atomic.set h.h_min Float.infinity;
          Atomic.set h.h_max Float.neg_infinity)
        !histograms)

let jsonl_lines () =
  let s = snapshot () in
  List.filter_map
    (fun (n, v) ->
      if v = 0 then None
      else
        Some
          (Json.Obj
             [
               ("t", Json.Str "counter");
               ("name", Json.Str n);
               ("value", Json.Num (float_of_int v));
             ]))
    s.counters
  @ List.filter_map
      (fun (n, (h : hist_stats)) ->
        if h.count = 0 then None
        else
          Some
            (Json.Obj
               [
                 ("t", Json.Str "hist");
                 ("name", Json.Str n);
                 ("count", Json.Num (float_of_int h.count));
                 ("sum", Json.Num h.sum);
                 ("min", Json.Num h.min);
                 ("max", Json.Num h.max);
               ]))
      s.histograms
