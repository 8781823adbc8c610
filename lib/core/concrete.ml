[@@@lint.allow
  "r1 concrete simulation is the falsification/test oracle, not an \
   enclosure; it deliberately runs plain float math"]

type termination = Terminated of float | Hit_error of float | Horizon_end

type trace = {
  points : (float * float array * int) list;
  termination : termination;
}

let simulate ?(substeps = 20) sys ~init_state ~init_cmd =
  if substeps <= 0 then invalid_arg "Concrete.simulate: non-positive substeps";
  let ctrl = sys.System.controller in
  let plant = sys.System.plant in
  let period = ctrl.Controller.period in
  let q = sys.System.horizon_steps in
  let h = period /. float_of_int substeps in
  let points = ref [] in
  let push t s c = points := (t, Array.copy s, c) :: !points in
  let exception Stop of termination in
  let state = ref (Array.copy init_state) and cmd = ref init_cmd in
  let result =
    try
      for j = 0 to q - 1 do
        let t_j = float_of_int j *. period in
        push t_j !state !cmd;
        if sys.System.erroneous.Spec.contains_point !state !cmd then
          raise (Stop (Hit_error t_j));
        if sys.System.target.Spec.contains_point !state !cmd then
          raise (Stop (Terminated t_j));
        (* controller samples s(jT) under the current command *)
        let next_cmd = Controller.concrete_step ctrl ~state:!state ~prev_cmd:!cmd in
        (* plant flows under the current command for one period *)
        let u = Command.value ctrl.Controller.commands !cmd in
        for i = 0 to substeps - 1 do
          let t = t_j +. (float_of_int i *. h) in
          state := Nncs_ode.Ode.rk4_step plant ~time:t ~state:!state ~inputs:u ~h;
          if i < substeps - 1 then begin
            push (t +. h) !state !cmd;
            if sys.System.erroneous.Spec.contains_point !state !cmd then
              raise (Stop (Hit_error (t +. h)))
          end
        done;
        cmd := next_cmd
      done;
      let t_end = float_of_int q *. period in
      push t_end !state !cmd;
      if sys.System.erroneous.Spec.contains_point !state !cmd then
        Hit_error t_end
      else if sys.System.target.Spec.contains_point !state !cmd then
        Terminated t_end
      else Horizon_end
    with Stop term -> term
  in
  { points = List.rev !points; termination = result }

let min_erroneous_distance ~metric trace =
  List.fold_left
    (fun acc (_, s, _) -> Float.min acc (metric s))
    Float.infinity trace.points

let final_state trace =
  match List.rev trace.points with
  | (_, s, c) :: _ -> (s, c)
  | [] -> invalid_arg "Concrete.final_state: empty trace"
