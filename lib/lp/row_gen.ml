type spec = {
  sense : Lp_model.sense;
  rhs : float;
  coeffs : (Lp_model.var * float) list;
}

type result = { solution : Simplex.solution; rounds : int; converged : bool }

let solve ?(max_rounds = 60) ?(per_round = 500) ~violated model =
  let rounds = ref 0 in
  let result = ref None in
  let st = ref (Simplex.make model) in
  while !result = None do
    incr rounds;
    let sol = Simplex.solve_warm !st in
    let finish converged = result := Some { solution = sol; rounds = !rounds; converged } in
    if sol.Simplex.status <> Simplex.Optimal then finish false
    else begin
      let rows = violated sol.Simplex.x in
      if rows = [] then finish true
      else if !rounds >= max_rounds then finish false
      else begin
        let added = ref 0 in
        List.iter
          (fun r ->
            if !added < per_round then begin
              ignore (Lp_model.add_row model r.sense r.rhs r.coeffs);
              incr added
            end)
          rows;
        (* reuse the basis: new slacks basic, dual simplex continues *)
        st := Simplex.extend !st model
      end
    end
  done;
  match !result with Some r -> r | None -> assert false
