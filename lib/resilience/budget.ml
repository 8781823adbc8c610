type limits = {
  deadline_s : float option;
  max_ode_steps : int option;
  max_symstates : int option;
}

let unlimited = { deadline_s = None; max_ode_steps = None; max_symstates = None }

let is_unlimited l =
  l.deadline_s = None && l.max_ode_steps = None && l.max_symstates = None

type t = {
  deadline : float option;  (* absolute monotonic-clock stamp *)
  max_ode_steps : int option;
  max_symstates : int option;
  ode_steps : int Atomic.t;
  cancel : Cancel.t;
}

exception Exhausted of Failure.budget_kind

let now () = Nncs_obs.Clock.monotonic_s ()

let start ?(cancel = Cancel.never) l =
  {
    deadline = Option.map (fun s -> now () +. s) l.deadline_s;
    max_ode_steps = l.max_ode_steps;
    max_symstates = l.max_symstates;
    ode_steps = Atomic.make 0;
    cancel;
  }

let none =
  {
    deadline = None;
    max_ode_steps = None;
    max_symstates = None;
    ode_steps = Atomic.make 0;
    cancel = Cancel.never;
  }

let check_deadline t =
  Cancel.check t.cancel;
  match t.deadline with
  | Some d when now () >= d -> raise (Exhausted Failure.Deadline)
  | _ -> ()

let expired t =
  Cancel.cancelled t.cancel
  ||
  match t.deadline with Some d -> now () >= d | None -> false

let add_ode_steps t n =
  Cancel.check t.cancel;
  match t.max_ode_steps with
  | None -> ()
  | Some m ->
      if Atomic.fetch_and_add t.ode_steps n + n > m then
        raise (Exhausted Failure.Ode_steps)

let check_symstates t n =
  match t.max_symstates with
  | Some m when n > m -> raise (Exhausted Failure.Symbolic_states)
  | _ -> ()

let cancel_token t = t.cancel
