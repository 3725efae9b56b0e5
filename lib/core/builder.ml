module Prng = Flexile_util.Prng
module Graph = Flexile_net.Graph
module Tunnels = Flexile_net.Tunnels
module Failure_model = Flexile_failure.Failure_model
module Gravity = Flexile_traffic.Gravity
module Instance = Flexile_te.Instance
module Mlu = Flexile_te.Mlu

type options = {
  max_pairs : int;
  max_scenarios : int;
  scenario_mix : string;
  low_scale : float;
  jobs : int;
}

let default_options =
  {
    max_pairs = 240;
    max_scenarios = 150;
    scenario_mix = "independent";
    low_scale = 2.0;
    jobs = 0;
  }

(* The rest of §6's methodology, fixed for every instance: scenarios
   less likely than [scenario_cutoff] are not enumerated; the
   no-failure min-MLU lands in [mlu_lo, mlu_hi]; each pair gets
   [tunnels_per_pair] tunnels, and a low-priority pair
   [low_extra_tunnels] more; the low class's target is [low_beta] and
   the high class weighs [high_weight] in the penalty.  The Weibull
   median of link failure probabilities (0.001) is
   {!Flexile_failure.Failure_model}'s. *)
let scenario_cutoff = 1e-6
let mlu_lo = 0.5
let mlu_hi = 0.7
let tunnels_per_pair = 3
let low_extra_tunnels = 3
let low_beta = 0.99
let high_weight = 100.

let known_regimes =
  [ "independent"; "srlg"; "partial"; "drift"; "diurnal"; "maintenance" ]

let parse_mix spec =
  let tokens =
    List.filter
      (fun s -> s <> "")
      (String.split_on_char ',' (String.lowercase_ascii (String.trim spec)))
  in
  if tokens = [] then Error "empty scenario mix"
  else
    match List.find_opt (fun t -> not (List.mem t known_regimes)) tokens with
    | Some t ->
        Error
          (Printf.sprintf "unknown scenario regime %S (known: %s)" t
             (String.concat ", " known_regimes))
    | None ->
        Ok (List.rev (List.fold_left (fun acc t -> if List.mem t acc then acc else t :: acc) [] tokens))

let sample_pairs ~seed ~max_pairs graph =
  let all = Graph.pairs graph in
  if Array.length all <= max_pairs then all
  else begin
    let copy = Array.copy all in
    Prng.shuffle seed copy;
    let chosen = Array.sub copy 0 max_pairs in
    Array.sort compare chosen;
    chosen
  end

(* A deterministic weekly maintenance schedule for mixed-regime sets:
   the two lowest-id links each get a 4-hour window out of a 168-hour
   horizon, disjoint in time.  Purely a function of the topology. *)
let default_maintenance graph =
  let ne = Graph.nedges graph in
  let windows =
    if ne >= 2 then
      [
        {
          Failure_model.wname = "mw-0";
          wedges = [| 0 |];
          wstart = 10.;
          wduration = 4.;
        };
        { Failure_model.wname = "mw-1"; wedges = [| 1 |]; wstart = 60.; wduration = 4. };
      ]
    else
      [ { Failure_model.wname = "mw-0"; wedges = [| 0 |]; wstart = 10.; wduration = 4. } ]
  in
  Failure_model.maintenance ~nedges:ne ~horizon:168. windows

(* Enumerated scenario set for the configured mix, with per-pair
   demand factors when the mix includes a demand regime.  Every regime
   of a mix draws from its own split of [seed], split in mix order (a
   split advances its parent, so a regime's stream depends on its
   position in the mix); the mix that is just "independent" — the
   paper's model — draws from [seed] itself. *)
let scenario_set ~options ~seed ~graph ~npairs =
  let tokens =
    match parse_mix options.scenario_mix with
    | Ok tokens -> tokens
    | Error msg -> invalid_arg ("Builder: " ^ msg)
  in
  let seed_of name =
    match tokens with [ "independent" ] -> seed | _ -> Prng.split seed name
  in
  let ne = Graph.nedges graph in
  let gen_of = function
    | "independent" ->
        Failure_model.independent_links ~graph ~seed:(seed_of "independent") ()
    | "srlg" ->
        Failure_model.srlg ~nedges:ne
          ~groups:(Flexile_net.Catalog.srlgs graph)
          ~seed:(seed_of "srlg") ()
    | "partial" -> Failure_model.partial ~graph ~seed:(seed_of "partial") ()
    | "drift" ->
        Failure_model.demand_states ~nedges:ne ~name:"drift"
          (Array.map
             (fun (p, fs) -> (p, Failure_model.Per_pair fs))
             (Gravity.drift_states ~seed:(seed_of "drift") ~npairs ()))
    | "diurnal" ->
        Failure_model.diurnal ~nedges:ne
    | "maintenance" -> default_maintenance graph
    | t -> invalid_arg ("Builder: unknown scenario regime " ^ t)
  in
  let model = Failure_model.compose (List.map gen_of tokens) in
  let scenarios =
    Failure_model.enumerate ~cutoff:scenario_cutoff
      ~max_scenarios:options.max_scenarios model
  in
  (scenarios, Failure_model.pair_factors ~npairs model scenarios)

(* Instance.make wants demand factors per (sid, fid) with
   fid = class * npairs + pair; scenario generators perturb demand per
   pair, uniformly across classes. *)
let expand_pair_factors ~nclasses ~npairs pair_factors =
  match pair_factors with
  | None -> None
  | Some pf ->
      Some
        (Array.map
           (fun row ->
             Array.init (nclasses * npairs) (fun fid -> row.(fid mod npairs)))
           pf)

(* Scale a gravity matrix so the no-failure min-MLU lands at a
   deterministic point of the paper's [0.5, 0.7] window. *)
let scaled_gravity ~seed graph pairs tunnels =
  let demands = Gravity.matrix ~seed ~graph ~pairs in
  let target = Prng.uniform seed mlu_lo mlu_hi in
  let mlu d = Mlu.min_mlu ~graph ~tunnels ~demands:d in
  Gravity.scale_to_mlu ~mlu ~target demands

(* §6: "our design target is set to as high a probability target as
   possible, while ensuring all flows remain connected for the sampled
   scenarios" — i.e. the minimum over flows of their connected
   probability mass (any higher target trivially forces PercLoss 1).
   The flow crossing the least reliable cut is the binding one; every
   other flow keeps a positive probability budget of scenarios it may
   sacrifice, which is exactly the heterogeneity Flexile exploits. *)
let finalize_betas inst =
  let classes = Array.copy inst.Instance.classes in
  Array.iteri
    (fun k (c : Instance.cls) ->
      if Float.is_nan c.Instance.beta then begin
        let mass =
          Array.fold_left
            (fun acc (f : Instance.flow) ->
              if f.Instance.cls = k && f.Instance.demand > 0. then
                Float.min acc (Instance.connected_mass inst f)
              else acc)
            1. inst.Instance.flows
        in
        classes.(k) <- { c with Instance.beta = Float.max 0. (mass -. 1e-9) }
      end)
    classes;
  Instance.with_classes inst classes

let single_class ?(options = default_options) ~graph () =
  let seed = Prng.of_string ("flexile-instance-" ^ graph.Graph.name) in
  let pairs = sample_pairs ~seed:(Prng.split seed "pairs") ~max_pairs:options.max_pairs graph in
  let tunnels_single =
    Array.map
      (fun (u, v) ->
        Array.of_list
          (Tunnels.select_single_class graph ~pair:(u, v)
             ~count:tunnels_per_pair))
      pairs
  in
  let demands =
    scaled_gravity ~seed:(Prng.split seed "traffic") graph pairs
      tunnels_single
  in
  let scenarios, pair_factors =
    scenario_set ~options
      ~seed:(Prng.split seed "failures")
      ~graph ~npairs:(Array.length pairs)
  in
  let demand_factors =
    expand_pair_factors ~nclasses:1 ~npairs:(Array.length pairs) pair_factors
  in
  let inst =
    Instance.make ~graph
      ~classes:[| { Instance.cname = "all"; beta = Float.nan; weight = 1. } |]
      ~pairs ~tunnels:[| tunnels_single |] ~demands:[| demands |]
      ?demand_factors ~scenarios ()
  in
  finalize_betas inst

let two_class ?(options = default_options) ~graph () =
  let seed = Prng.of_string ("flexile-instance2-" ^ graph.Graph.name) in
  let pairs = sample_pairs ~seed:(Prng.split seed "pairs") ~max_pairs:options.max_pairs graph in
  let tunnels_high =
    Array.map
      (fun (u, v) ->
        Array.of_list
          (Tunnels.select_high_priority graph ~pair:(u, v)
             ~count:tunnels_per_pair))
      pairs
  in
  let tunnels_low =
    Array.mapi
      (fun i (u, v) ->
        Array.of_list
          (Tunnels.select_low_priority graph ~pair:(u, v)
             ~high:(Array.to_list tunnels_high.(i))
             ~extra:low_extra_tunnels))
      pairs
  in
  let base =
    scaled_gravity ~seed:(Prng.split seed "traffic") graph pairs
      tunnels_high
  in
  let high, low =
    Gravity.split_two_class ~seed:(Prng.split seed "split")
      ~low_scale:options.low_scale base
  in
  let scenarios, pair_factors =
    scenario_set ~options
      ~seed:(Prng.split seed "failures")
      ~graph ~npairs:(Array.length pairs)
  in
  let demand_factors =
    expand_pair_factors ~nclasses:2 ~npairs:(Array.length pairs) pair_factors
  in
  let inst =
    Instance.make ~graph
      ~classes:
        [|
          { Instance.cname = "high"; beta = Float.nan; weight = high_weight };
          { Instance.cname = "low"; beta = low_beta; weight = 1. };
        |]
      ~pairs
      ~tunnels:[| tunnels_high; tunnels_low |]
      ~demands:[| high; low |] ?demand_factors ~scenarios ()
  in
  finalize_betas inst

let of_name ?options ?(two_classes = false) name =
  let graph = Flexile_net.Catalog.by_name name in
  if two_classes then two_class ?options ~graph ()
  else single_class ?options ~graph ()

(* ---------- toy instances from the paper ---------- *)

(* every link of the triangle fails independently with probability 0.01 *)
let toy_scenarios () =
  Failure_model.enumerate ~cutoff:1e-7 ~max_scenarios:8
    (Failure_model.binary ~nedges:3 [| 0.01; 0.01; 0.01 |])

let path_tunnel graph ~pair edges = Tunnels.make graph ~pair (Array.of_list edges)

let fig1 () =
  let graph = Flexile_net.Catalog.triangle () in
  (* edge ids: 0 = A-B, 1 = A-C, 2 = B-C *)
  let pairs = [| (0, 1); (0, 2) |] in
  let tunnels =
    [|
      [|
        (* A-B: direct and via C *)
        [| path_tunnel graph ~pair:(0, 1) [ 0 ]; path_tunnel graph ~pair:(0, 1) [ 1; 2 ] |];
        (* A-C: direct and via B *)
        [| path_tunnel graph ~pair:(0, 2) [ 1 ]; path_tunnel graph ~pair:(0, 2) [ 0; 2 ] |];
      |];
    |]
  in
  Instance.make ~graph
    ~classes:[| { Instance.cname = "all"; beta = 0.99; weight = 1. } |]
    ~pairs ~tunnels ~demands:[| [| 1.; 1. |] |] ~scenarios:(toy_scenarios ()) ()
