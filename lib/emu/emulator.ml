module Lp_model = Flexile_lp.Lp_model
module Simplex = Flexile_lp.Simplex
module Graph = Flexile_net.Graph
module Instance = Flexile_te.Instance
module Routing = Flexile_te.Routing
module Prng = Flexile_util.Prng
module Stats = Flexile_util.Stats
module Trace = Flexile_util.Trace

(* per-scenario emulation latency, and the distribution of the
   discretization gap |emulated - model| over (flow, scenario) cells —
   the quantity Fig. 9c studies, live as a histogram *)
let h_scenario = Trace.hist "emu.scenario_seconds"
let h_abs_diff = Trace.hist "emu.flow_abs_diff"

type run = {
  emulated : Instance.losses;
  pcc : float;
  max_abs_diff : float;
  diff_cdf : (float * float) list;
}

let reconstruct_allocation inst ~sid ~model_losses =
  let model = Lp_model.create ~name:(Printf.sprintf "reconstruct-%d" sid) () in
  (* tiny cost keeps the allocation minimal and unique-ish *)
  let x = Routing.vars ~sid ~obj:1. model inst in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. && Instance.flow_connected inst f sid then begin
        let demand = Instance.demand_in inst f sid in
        let target = demand *. (1. -. model_losses.(f.Instance.fid).(sid)) in
        (* slack for LP tolerance in the scheme's own solve *)
        let target = Float.max 0. (target -. (1e-6 *. demand)) in
        ignore
          (Lp_model.add_row model Lp_model.Ge target
             (List.map (fun v -> (v, 1.)) (Routing.alive inst x ~sid f)))
      end)
    inst.Instance.flows;
  ignore (Routing.capacity_rows ~sid model inst x);
  let sol = Simplex.solve model in
  let value v = if v >= 0 && sol.Simplex.status = Simplex.Optimal then sol.Simplex.x.(v) else 0. in
  Array.map (Array.map (Array.map value)) x

(* Integer select-group weights from a fractional split, in the Open
   vSwitch select-group weight range. *)
let weight_scale = 100

let integer_weights split =
  let total = Array.fold_left ( +. ) 0. split in
  if total <= 0. then Array.map (fun _ -> 0) split
  else
    Array.map
      (fun s ->
        if s <= 1e-9 then 0
        else max 1 (int_of_float (Float.round (float_of_int weight_scale *. s /. total))))
      split

(* Fixed point of per-link pass factors: traffic arriving at each hop
   is the tunnel's injected volume scaled by the upstream factors. *)
let link_pass_factors inst ~sid tunnel_traffic =
  let g = inst.Instance.graph in
  let ne = Graph.nedges g in
  let factors = Array.make ne 1. in
  for _ = 1 to 25 do
    let load = Array.make ne 0. in
    List.iter
      (fun ((t : Flexile_net.Tunnels.t), volume) ->
        let carried = ref volume in
        Array.iter
          (fun e ->
            load.(e) <- load.(e) +. !carried;
            carried := !carried *. factors.(e))
          t.Flexile_net.Tunnels.path)
      tunnel_traffic;
    for e = 0 to ne - 1 do
      let cap = Instance.edge_capacity inst ~sid e in
      if cap <= 0. then factors.(e) <- 0.
      else if load.(e) > cap then factors.(e) <- cap /. load.(e)
      else factors.(e) <- 1.
    done
  done;
  factors

(* One scenario's emulation over its reconstructed allocation. *)
let emulate_alloc ~packets_per_unit ~seed inst ~sid ~model_losses alloc =
  Trace.observe_duration h_scenario @@ fun () ->
  let out = Array.make (Instance.nflows inst) 1. in
  (* per-flow packetized tunnel volumes *)
  let tunnel_traffic = ref [] in
  let flow_sent = Array.make (Instance.nflows inst) 0. in
  Array.iter
    (fun (f : Instance.flow) ->
        let fid = f.Instance.fid in
        let demand = Instance.demand_in inst f sid in
        if demand <= 0. then out.(fid) <- 0.
        else if not (Instance.flow_connected inst f sid) then
          out.(fid) <- 1.
        else begin
          let split = alloc.(f.Instance.cls).(f.Instance.pair) in
          let weights = integer_weights split in
          let wsum = Array.fold_left ( + ) 0 weights in
          let admitted = demand *. (1. -. model_losses.(fid).(sid)) in
          if wsum = 0 || admitted <= 0. then out.(fid) <- 1.
          else begin
            let npackets =
              max 1
                (int_of_float
                   (Float.round (admitted *. float_of_int packets_per_unit)))
            in
            let counts = Array.make (Array.length weights) 0 in
            for _ = 1 to npackets do
              (* weighted tunnel choice per packet *)
              let r = Prng.int seed wsum in
              let acc = ref 0 and chosen = ref 0 in
              (try
                 Array.iteri
                   (fun ti w ->
                     acc := !acc + w;
                     if r < !acc then begin
                       chosen := ti;
                       raise Exit
                     end)
                   weights
               with Exit -> ());
              counts.(!chosen) <- counts.(!chosen) + 1
            done;
            let unit = admitted /. float_of_int npackets in
            Array.iteri
              (fun ti c ->
                if c > 0 then
                  tunnel_traffic :=
                    ( inst.Instance.tunnels.(f.Instance.cls).(f.Instance.pair).(ti),
                      float_of_int c *. unit,
                      fid )
                    :: !tunnel_traffic)
              counts;
            flow_sent.(fid) <- admitted
          end
        end)
    inst.Instance.flows;
  let traffic_only = List.map (fun (t, v, _) -> (t, v)) !tunnel_traffic in
  let factors = link_pass_factors inst ~sid traffic_only in
  let delivered = Array.make (Instance.nflows inst) 0. in
  List.iter
    (fun ((t : Flexile_net.Tunnels.t), volume, fid) ->
      let carried = ref volume in
      Array.iter
        (fun e -> carried := !carried *. factors.(e))
        t.Flexile_net.Tunnels.path;
      delivered.(fid) <- delivered.(fid) +. !carried)
    !tunnel_traffic;
  Array.iter
    (fun (f : Instance.flow) ->
      let fid = f.Instance.fid in
      let demand = Instance.demand_in inst f sid in
      if
        demand > 0.
        && Instance.flow_connected inst f sid
        && flow_sent.(fid) > 0.
      then
        out.(fid) <-
          Float.max 0. (Float.min 1. (1. -. (delivered.(fid) /. demand))))
    inst.Instance.flows;
  out

(* packets per unit of admitted traffic *)
let default_packets = 200

let emulate_scenario ~seed inst ~sid ~model_losses =
  emulate_alloc ~packets_per_unit:default_packets ~seed inst ~sid ~model_losses
    (reconstruct_allocation inst ~sid ~model_losses)

(* The run record of one emulated loss matrix against the model. *)
let compare_to_model inst ~model_losses emulated =
  let nq = Instance.nscenarios inst in
  let em = ref [] and mo = ref [] and diffs = ref [] in
  Array.iter
    (fun (f : Instance.flow) ->
      if f.Instance.demand > 0. then
        for sid = 0 to nq - 1 do
          em := emulated.(f.Instance.fid).(sid) :: !em;
          mo := model_losses.(f.Instance.fid).(sid) :: !mo;
          let d =
            emulated.(f.Instance.fid).(sid)
            -. model_losses.(f.Instance.fid).(sid)
          in
          Trace.observe h_abs_diff (Float.abs d);
          diffs := d :: !diffs
        done)
    inst.Instance.flows;
  let em = Array.of_list !em and mo = Array.of_list !mo in
  let diffs = Array.of_list !diffs in
  let n = Array.length diffs in
  let diff_cdf =
    let sorted = Array.copy diffs in
    Array.sort Float.compare sorted;
    Array.to_list
      (Array.mapi
         (fun i v -> (v, float_of_int (i + 1) /. float_of_int n))
         sorted)
  in
  {
    emulated;
    pcc = Stats.pearson em mo;
    max_abs_diff = Array.fold_left (fun a d -> Float.max a (Float.abs d)) 0. diffs;
    diff_cdf;
  }

(* Reconstruction depends only on (instance, model losses, scenario),
   not on the seed: each scenario's allocation is solved once and
   emulated under every run's seed.  A run's PRNG advances through the
   scenarios in order, so interleaving the runs leaves each unchanged. *)
let emulate ?(packets_per_unit = default_packets) ~seeds inst ~model_losses =
  let nq = Instance.nscenarios inst in
  let runs = List.map (fun seed -> (seed, Instance.alloc_losses inst)) seeds in
  for sid = 0 to nq - 1 do
    let alloc = reconstruct_allocation inst ~sid ~model_losses in
    List.iter
      (fun (seed, emulated) ->
        let per_flow =
          emulate_alloc ~packets_per_unit ~seed inst ~sid ~model_losses alloc
        in
        Array.iteri (fun fid v -> emulated.(fid).(sid) <- v) per_flow)
      runs
  done;
  List.map (fun (_, emulated) -> compare_to_model inst ~model_losses emulated) runs
