type t = {
  symmetry : bool;
  found_bug : bool;
  seen_keys : (string, unit) Hashtbl.t;
  seen_role_keys : (string, unit) Hashtbl.t;
  mutable bug_scenarios : Scenario.t list;
}

let create ?(symmetry = true) ?(found_bug = true) () =
  {
    symmetry;
    found_bug;
    seen_keys = Hashtbl.create 256;
    seen_role_keys = Hashtbl.create 256;
    bug_scenarios = [];
  }

let should_prune t scenario =
  Hashtbl.mem t.seen_keys (Scenario.key scenario)
  || (t.symmetry && Hashtbl.mem t.seen_role_keys (Scenario.role_key scenario))
  || (t.found_bug
     && List.exists
          (fun bug -> Scenario.subsumes ~smaller:bug ~larger:scenario)
          t.bug_scenarios)

let note_run t scenario =
  Hashtbl.replace t.seen_keys (Scenario.key scenario) ();
  if t.symmetry then
    Hashtbl.replace t.seen_role_keys (Scenario.role_key scenario) ()

let note_bug t scenario = t.bug_scenarios <- scenario :: t.bug_scenarios

let symmetry_scenarios ~instances = (2 * instances) - 1

let unpruned_scenarios ~instances =
  instances * ((1 lsl instances) - 1)
