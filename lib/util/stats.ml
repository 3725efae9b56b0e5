let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 1. then invalid_arg "Stats.percentile: p out of range";
  let s = Array.copy xs in
  (* Float.compare, not polymorphic compare: total over NaN and free
     of the generic-compare dispatch on a float array *)
  Array.sort Float.compare s;
  (* smallest v with fraction(<= v) >= p *)
  let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  let k = max 0 (min (n - 1) k) in
  s.(k)

let median xs = percentile xs 0.5

let sort_by_value samples =
  let s = Array.copy samples in
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) s;
  s

let weighted_var samples ~beta =
  if beta < 0. || beta > 1. then invalid_arg "Stats.weighted_var";
  let s = sort_by_value samples in
  let acc = ref 0. in
  let result = ref None in
  Array.iter
    (fun (v, p) ->
      match !result with
      | Some _ -> ()
      | None ->
          acc := !acc +. p;
          if !acc >= beta -. 1e-12 then result := Some v)
    s;
  match !result with
  | Some v -> v
  | None ->
      (* observed mass below beta: unobserved scenarios count as worst *)
      1.0

let weighted_cvar samples ~beta =
  if beta < 0. || beta >= 1. then invalid_arg "Stats.weighted_cvar";
  let s = sort_by_value samples in
  let total = Array.fold_left (fun a (_, p) -> a +. p) 0. s in
  let tail = 1. -. beta in
  (* walk from the top of the distribution, collecting [tail] mass;
     missing probability (1 - total) is the worst tail at loss 1.0 *)
  let missing = Float.max 0. (1. -. total) in
  let remaining = ref (tail -. Float.min tail missing) in
  let acc = ref (Float.min tail missing *. 1.0) in
  for i = Array.length s - 1 downto 0 do
    if !remaining > 1e-15 then begin
      let v, p = s.(i) in
      let take = Float.min p !remaining in
      acc := !acc +. (take *. v);
      remaining := !remaining -. take
    end
  done;
  !acc /. tail

let weighted_cdf samples =
  let s = sort_by_value samples in
  let acc = ref 0. in
  Array.to_list s
  |> List.map (fun (v, p) ->
         acc := !acc +. p;
         (v, !acc))

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let pearson xs ys =
  let n = Array.length xs in
  if n <> Array.length ys || n = 0 then invalid_arg "Stats.pearson";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  !sxy /. Float.sqrt (!sxx *. !syy)
