module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex

type result = {
  losses : Instance.losses;
  granted : float array;
  allocation : float array array;
}

(* Enumerate the <= k element subsets of [edges]. *)
let rec subsets k edges =
  if k = 0 then [ [] ]
  else
    match edges with
    | [] -> [ [] ]
    | e :: rest ->
        let without = subsets k rest in
        let with_e = List.map (fun s -> e :: s) (subsets (k - 1) rest) in
        without @ with_e

let run ?(k = 1) ?jobs inst =
  if Array.length inst.Instance.classes <> 1 then
    invalid_arg "Ffc.run: single traffic class only";
  if k < 0 || k > 2 then
    invalid_arg "Ffc.run: failure protection level must be 0, 1 or 2";
  let model = Lp_model.create ~name:"ffc" () in
  let x = Routing.vars model inst in
  let flows = Instance.flows_of_class inst 0 in
  (* one concurrent scale factor: every flow is granted s * d_f, the
     "bandwidth guaranteed for all flows" form of FFC's admission *)
  let s = Lp_model.add_var model ~ub:1. ~obj:(-1.) () in
  (* capacity of the no-failure reservations *)
  ignore (Routing.capacity_rows model inst x);
  (* robustness: for every set S of <= k links, the tunnels surviving S
     must still cover b_f.  Only links appearing in the flow's own
     tunnels can hurt it, so the enumeration stays small. *)
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then begin
        let i = f.Instance.pair in
        let ts = inst.Instance.tunnels.(0).(i) in
        let edges =
          Array.to_list ts
          |> List.concat_map (fun (t : Flexile_net.Tunnels.t) ->
                 Array.to_list t.Flexile_net.Tunnels.path)
          |> List.sort_uniq compare
        in
        List.iter
          (fun dead ->
            (* s * d_f - the sum of the x surviving [dead] <= 0 *)
            let coeffs = ref [ (s, f.Instance.demand) ] in
            Array.iteri
              (fun ti (t : Flexile_net.Tunnels.t) ->
                if not (Array.exists (fun e -> List.mem e dead) t.Flexile_net.Tunnels.path)
                then coeffs := (x.(0).(i).(ti), -1.) :: !coeffs)
              ts;
            ignore (Lp_model.add_row model Lp_model.Le 0. !coeffs))
          (subsets k edges)
      end)
    flows;
  let sol = Simplex.solve model in
  if sol.Simplex.status <> Simplex.Optimal then failwith "Ffc.run: LP failed";
  let scale = sol.Simplex.x.(s) in
  let granted = Array.make (Instance.nflows inst) 0. in
  Array.iter
    (fun (f : Instance.flow) ->
      granted.(f.Instance.fid) <- scale *. f.Instance.demand)
    flows;
  let allocation = Array.map (Array.map (fun v -> sol.Simplex.x.(v))) x.(0) in
  let losses =
    Routing.losses ?jobs inst
      ~grant:(fun f -> granted.(f.Instance.fid))
      ~routing:(fun _ -> x)
      (fun v -> sol.Simplex.x.(v))
  in
  { losses; granted; allocation }
