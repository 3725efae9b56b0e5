(* SLO attainment over an observed scenario stream.

   The offline phase promises each class a PercLoss at its
   availability target beta (Definition 4.2); this module watches the
   losses actually delivered as scenarios arrive and answers two
   questions per class:

   - attainment: does the beta-percentile of *observed* flow loss stay
     within the promise?  Computed with the very same machinery as the
     offline analysis (Metrics.perc_loss over an Instance.losses
     matrix), so once every scenario has been observed the two numbers
     reconcile exactly.

   - burn rate: over a sliding window of recent draws, the fraction of
     draws that violated the promise, normalized by the error budget
     (1 - beta).  A burn rate of 1.0 means violations arrive exactly
     at the budgeted rate; sustained > 1.0 means the class will miss
     its target.

   Scenarios never observed keep their initial loss of 1.0 in the
   matrix (Instance.alloc_losses), and draws falling outside the
   enumerated set are charged as violations of every class — both
   mirror the paper's conservative treatment of unenumerated mass. *)

module Trace = Flexile_util.Trace
module Json = Flexile_util.Json
module Instance = Flexile_te.Instance
module Metrics = Flexile_te.Metrics

let h_flow_loss = Trace.hist "slo.flow_loss"

type t = {
  inst : Instance.t;
  promised : float array;
  observed : Instance.losses;
  seen : bool array;
  window : int;
  (* per-class ring of the last [window] draws' violation flags *)
  win_bad : bool array array;
  win_bad_count : int array;
  mutable win_len : int;
  mutable win_pos : int;
  bad_draws : int array;
  mutable total_draws : int;
  mutable unenumerated : int;
}

(* the slack added to every promise comparison *)
let tol = 1e-6

let create ?(window = 100) ~promised inst =
  let nk = Array.length inst.Instance.classes in
  if Array.length promised <> nk then invalid_arg "Slo.create: promised";
  if window < 1 then invalid_arg "Slo.create: window";
  {
    inst;
    promised = Array.copy promised;
    observed = Instance.alloc_losses inst;
    seen = Array.make (Instance.nscenarios inst) false;
    window;
    win_bad = Array.init nk (fun _ -> Array.make window false);
    win_bad_count = Array.make nk 0;
    win_len = 0;
    win_pos = 0;
    bad_draws = Array.make nk 0;
    total_draws = 0;
    unenumerated = 0;
  }

(* Slide one draw's per-class violation flags into the window. *)
let push t bad =
  let nk = Array.length t.promised in
  if t.win_len = t.window then
    for k = 0 to nk - 1 do
      if t.win_bad.(k).(t.win_pos) then
        t.win_bad_count.(k) <- t.win_bad_count.(k) - 1
    done
  else t.win_len <- t.win_len + 1;
  for k = 0 to nk - 1 do
    t.win_bad.(k).(t.win_pos) <- bad.(k);
    if bad.(k) then begin
      t.win_bad_count.(k) <- t.win_bad_count.(k) + 1;
      t.bad_draws.(k) <- t.bad_draws.(k) + 1
    end
  done;
  t.win_pos <- (t.win_pos + 1) mod t.window;
  t.total_draws <- t.total_draws + 1

let observe t ~sid ~losses =
  if sid < 0 || sid >= Instance.nscenarios t.inst then
    invalid_arg "Slo.observe: sid";
  if Array.length losses <> Instance.nflows t.inst then
    invalid_arg "Slo.observe: losses";
  let bad = Array.make (Array.length t.promised) false in
  Array.iter
    (fun (f : Instance.flow) ->
      (* clamp exactly as Scenario_engine.sweep_losses does, so the
         matrix — and Metrics.perc_loss over it — matches the offline
         analysis bit for bit *)
      let v = Float.max 0. (Float.min 1. losses.(f.Instance.fid)) in
      Trace.observe h_flow_loss v;
      t.observed.(f.Instance.fid).(sid) <- v;
      if f.Instance.demand > 0. && v > t.promised.(f.Instance.cls) +. tol
      then bad.(f.Instance.cls) <- true)
    t.inst.Instance.flows;
  t.seen.(sid) <- true;
  push t bad

let observe_unenumerated t =
  t.unenumerated <- t.unenumerated + 1;
  push t (Array.make (Array.length t.promised) true)

let observed_attainment t ~cls = Metrics.perc_loss t.inst t.observed ~cls
let observed_losses t = t.observed

let burn_rate t ~cls =
  if t.win_len = 0 then 0.
  else
    let frac =
      float_of_int t.win_bad_count.(cls) /. float_of_int t.win_len
    in
    let budget = 1. -. t.inst.Instance.classes.(cls).Instance.beta in
    if budget > 0. then frac /. budget
    else if t.win_bad_count.(cls) > 0 then Float.infinity
    else 0.

type class_report = {
  rcls : int;
  rname : string;
  rbeta : float;
  rpromised : float;
  robserved : float;
  rattained : bool;
  rbad_draws : int;
  rwindow_bad : int;
  rwindow_len : int;
  rburn_rate : float;
}

let class_report t ~cls =
  let c = t.inst.Instance.classes.(cls) in
  let observed = observed_attainment t ~cls in
  {
    rcls = cls;
    rname = c.Instance.cname;
    rbeta = c.Instance.beta;
    rpromised = t.promised.(cls);
    robserved = observed;
    rattained = observed <= t.promised.(cls) +. tol;
    rbad_draws = t.bad_draws.(cls);
    rwindow_bad = t.win_bad_count.(cls);
    rwindow_len = t.win_len;
    rburn_rate = burn_rate t ~cls;
  }

let report t =
  List.init (Array.length t.promised) (fun k -> class_report t ~cls:k)

let draws t = t.total_draws
let unenumerated_draws t = t.unenumerated

let scenarios_seen t =
  Array.fold_left (fun a s -> if s then a + 1 else a) 0 t.seen

let report_json t =
  Json.Object
    [
      ("draws", Json.int t.total_draws);
      ("unenumerated", Json.int t.unenumerated);
      ("scenarios_seen", Json.int (scenarios_seen t));
      ("scenarios", Json.int (Instance.nscenarios t.inst));
      ( "classes",
        Json.Array
          (List.map
             (fun r ->
               Json.Object
                 [
                   ("cls", Json.int r.rcls);
                   ("name", Json.String r.rname);
                   ("beta", Json.Number r.rbeta);
                   ("promised", Json.Number r.rpromised);
                   ("observed", Json.Number r.robserved);
                   ("attained", Json.Bool r.rattained);
                   ("bad_draws", Json.int r.rbad_draws);
                   ("window_bad", Json.int r.rwindow_bad);
                   ("window_len", Json.int r.rwindow_len);
                   ("burn_rate", Json.Number r.rburn_rate);
                 ])
             (report t)) );
    ]
