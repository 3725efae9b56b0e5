let node_masses ~seed ~n =
  Array.init n (fun _ -> Flexile_util.Prng.exponential seed ~rate:1.)

let matrix ~seed ~graph ~pairs =
  let masses = node_masses ~seed ~n:graph.Flexile_net.Graph.n in
  let raw =
    Array.map (fun (u, v) -> masses.(u) *. masses.(v)) pairs
  in
  let total = Array.fold_left ( +. ) 0. raw in
  if total <= 0. then invalid_arg "Gravity.matrix: degenerate masses";
  let mean = total /. float_of_int (Array.length pairs) in
  Array.map (fun d -> d /. mean) raw

let scale_to_mlu ~mlu ~target demands =
  let m = mlu demands in
  if not (m > 0.) then invalid_arg "Gravity.scale_to_mlu: MLU not positive";
  let f = target /. m in
  Array.map (fun d -> d *. f) demands

(* Multiplicative log-normal-ish perturbation of a traffic matrix:
   exp(sigma * z) per pair with z ~ N(0,1) via a Box-Muller-free sum
   of uniforms would bias the tails, so use the PRNG's gaussian if
   available; Prng exposes uniform, so approximate N(0,1) with the
   sum of 12 uniforms minus 6 (Irwin-Hall), which is standard for
   drift factors and keeps the draw count fixed at 12 per pair. *)
let perturb ~seed ~sigma demands =
  if sigma < 0. then invalid_arg "Gravity.perturb: negative sigma";
  Array.map
    (fun d ->
      let z = ref 0. in
      for _ = 1 to 12 do
        z := !z +. Flexile_util.Prng.uniform seed 0. 1.
      done;
      d *. Float.exp (sigma *. (!z -. 6.)))
    demands

(* Drift: two perturbation vectors of spread 0.1 sharing probability
   0.2, below the 0.5 enumeration bound. *)
let drift_sigma = 0.1
let drift_nstates = 2
let drift_total_prob = 0.2

let drift_states ~seed ~npairs () =
  let p = drift_total_prob /. float_of_int drift_nstates in
  let ones = Array.make npairs 1. in
  Array.init drift_nstates (fun _ -> (p, perturb ~seed ~sigma:drift_sigma ones))

let split_two_class ~seed ~low_scale demands =
  let high = Array.make (Array.length demands) 0. in
  let low = Array.make (Array.length demands) 0. in
  Array.iteri
    (fun i d ->
      let frac = Flexile_util.Prng.uniform seed 0.2 0.8 in
      high.(i) <- d *. frac;
      low.(i) <- d *. (1. -. frac) *. low_scale)
    demands;
  (high, low)
