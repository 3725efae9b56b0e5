(* The Benders master's rounding heuristic as it was before it became
   incremental (Flexile_te.Master_heuristic): every call copies the
   previous plan, folds each flow's coverage over all scenarios, sorts
   repair candidates as float tuples and re-evaluates every cut on each
   step.  It is kept unchanged, over the same inputs as
   [Master_heuristic.create], as the reference the incremental
   evaluator must match bit for bit. *)

module Master_heuristic = Flexile_te.Master_heuristic

let heuristic ~prob ~active ~coverage_target ~perfect ~z_prev ~zv
    ~(cuts : Master_heuristic.cut list) ~penalty ~nvars ~hamming_limit =
  let nq = Array.length prob in
  let prob q = prob.(q) in
  let eval_z z =
    List.fold_left
      (fun acc (c : Master_heuristic.cut) ->
        let v =
          Array.fold_left
            (fun a (fid, d) -> if z.(fid).(c.target) then a +. d else a)
            c.const c.coef
        in
        Float.max acc v)
      0. cuts
  in
  let coverage_of z fid =
    let mass = ref 0. in
    for q = 0 to nq - 1 do
      (* perfect scenarios are implicitly critical *)
      if z.(fid).(q) || (perfect.(q) && z_prev.(fid).(q)) then
        mass := !mass +. prob q
    done;
    !mass
  in
  let hamming_ok z =
    match hamming_limit with
    | None -> true
    | Some limit ->
        let dist = ref 0 in
        Array.iteri
          (fun fid row ->
            Array.iteri
              (fun q v -> if v >= 0 && z.(fid).(q) <> z_prev.(fid).(q) then incr dist)
              row)
          zv;
        !dist <= limit
  in
  let finish z =
    if not (hamming_ok z) then None
    else begin
      let cand = Array.make nvars 0. in
      cand.(penalty) <- eval_z z;
      Array.iteri
        (fun fid row ->
          Array.iteri (fun q v -> if v >= 0 && z.(fid).(q) then cand.(v) <- 1.) row)
        zv;
      Some cand
    end
  in
  let heuristic lp_x =
    let z = Array.map Array.copy z_prev in
    (* LP-guided rounding on the master's variables *)
    Array.iteri
      (fun fid row ->
        Array.iteri (fun q v -> if v >= 0 then z.(fid).(q) <- lp_x.(v) >= 0.5) row)
      zv;
    (* coverage repair: re-add the scenarios with the best mass, highest
       fractional value first *)
    Array.iteri
      (fun fid has_demand ->
        if has_demand then begin
          let mass = ref (coverage_of z fid) in
          if !mass < coverage_target.(fid) then begin
            let key q = (lp_x.(zv.(fid).(q)), prob q) in
            let candidates =
              List.init nq (fun q -> q)
              |> List.filter (fun q -> zv.(fid).(q) >= 0 && not z.(fid).(q))
              |> List.sort (fun a b -> compare (key b) (key a))
            in
            List.iter
              (fun q ->
                if !mass < coverage_target.(fid) then begin
                  z.(fid).(q) <- true;
                  mass := !mass +. prob q
                end)
              candidates
          end
        end)
      active;
    (* local improvement: drop the heaviest on-flag of a max-achieving
       cut while the flow's coverage allows it *)
    let continue_ = ref true in
    let steps = ref 0 in
    while !continue_ && !steps < 2 * nq do
      incr steps;
      continue_ := false;
      let cur = eval_z z in
      if cur > 1e-9 then begin
        let best = ref None in
        List.iter
          (fun (c : Master_heuristic.cut) ->
            let v =
              Array.fold_left
                (fun a (fid, d) -> if z.(fid).(c.target) then a +. d else a)
                c.const c.coef
            in
            if Float.abs (v -. cur) < 1e-12 then
              Array.iter
                (fun (fid, d) ->
                  if
                    z.(fid).(c.target) && d > 1e-9
                    && coverage_of z fid -. prob c.target
                       >= coverage_target.(fid) -. 1e-12
                  then
                    match !best with
                    | Some (_, _, d') when d' >= d -> ()
                    | _ -> best := Some (fid, c.target, d))
                c.coef)
          cuts;
        match !best with
        | Some (fid, q, _) ->
            z.(fid).(q) <- false;
            if eval_z z < cur -. 1e-12 then continue_ := true
            else z.(fid).(q) <- true
        | None -> ()
      end
    done;
    finish z
  in
  heuristic
