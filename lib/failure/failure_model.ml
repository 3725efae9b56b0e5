module Prng = Flexile_util.Prng

type demand_effect =
  | No_change
  | Scale of float
  | Per_pair of float array

type state = {
  prob : float;
  frac : float;
  demand : demand_effect;
  sedges : int array option;
}

type failure_unit = {
  uname : string;
  regime : string;
  edges : int array;
  states : state array;
}

type t = { nedges : int; units : failure_unit array }

let mk_state ?(demand = No_change) ?sedges ~prob ~frac () =
  { prob; frac; demand; sedges }

let state_edges u s = match s.sedges with Some e -> e | None -> u.edges

(* A unit's total non-nominal mass: its states are disjoint events of
   one cause, so their probabilities ADD (summed from 0. in state
   order).  Modelling each state as an independent binary unit would
   multiply complements instead and double-count mass as soon as a
   partial-capacity state joins the hard cut of the same link. *)
let unit_mass u = Array.fold_left (fun acc s -> acc +. s.prob) 0. u.states

let validate_unit ~nedges u =
  let fail fmt =
    Printf.ksprintf
      (fun m -> invalid_arg (Printf.sprintf "Failure_model: unit %s %s" u.uname m))
      fmt
  in
  let check_edges edges =
    Array.iter
      (fun e -> if e < 0 || e >= nedges then fail "references edge %d out of range" e)
      edges
  in
  check_edges u.edges;
  if Array.length u.states = 0 then fail "has no states";
  let nonneg f = f >= 0. && not (Float.is_nan f) in
  Array.iter
    (fun s ->
      if s.prob <= 0. || s.prob >= 1. then fail "state probability out of (0,1)";
      if s.frac < 0. || s.frac >= 1. then fail "capacity fraction out of [0,1)";
      Option.iter check_edges s.sedges;
      match s.demand with
      | No_change -> ()
      | Scale f -> if not (nonneg f) then fail "negative demand scale"
      | Per_pair fs ->
          if not (Array.for_all nonneg fs) then fail "negative per-pair demand factor")
    u.states;
  let total = unit_mass u in
  if total >= 0.5 then
    fail "total state mass %.3f >= 0.5 breaks best-first enumeration" total

let create ~nedges units =
  let units = Array.of_list units in
  Array.iter (validate_unit ~nedges) units;
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun u ->
      if Hashtbl.mem seen u.uname then
        invalid_arg (Printf.sprintf "Failure_model: duplicate unit name %s" u.uname);
      Hashtbl.add seen u.uname ())
    units;
  { nedges; units }

let compose gens =
  match gens with
  | [] -> invalid_arg "Failure_model.compose: empty"
  | g0 :: rest ->
      List.iter
        (fun g ->
          if g.nedges <> g0.nedges then
            invalid_arg "Failure_model.compose: edge-count mismatch")
        rest;
      create ~nedges:g0.nedges (List.concat_map (fun g -> Array.to_list g.units) gens)

(* ------------------------------------------------------------------ *)
(* Generator families                                                  *)
(* ------------------------------------------------------------------ *)

(* A binary unit: one non-nominal state, a hard cut of its edges. *)
let binary_unit ~uname ~regime edges p =
  { uname; regime; edges; states = [| mk_state ~prob:p ~frac:0. () |] }

let binary ?groups ~nedges probs =
  let groups =
    match groups with
    | Some g ->
        if Array.length g <> Array.length probs then
          invalid_arg "Failure_model.binary: groups and probs differ in length";
        g
    | None ->
        if Array.length probs <> nedges then
          invalid_arg "Failure_model.binary: one probability per edge";
        Array.init nedges (fun e -> [| e |])
  in
  create ~nedges
    (List.init (Array.length probs) (fun i ->
         binary_unit ~uname:(Printf.sprintf "unit-%d" i) ~regime:"independent"
           (Array.copy groups.(i)) probs.(i)))

(* The paper's §6 draw: Weibull with median 0.001 and shape 0.8 (the
   median is scale * (ln 2)^(1/shape)), clamped to [1e-5, 0.3]. *)
let weibull_median = 0.001
let weibull_shape = 0.8

let weibull_prob seed =
  let shape = weibull_shape in
  let scale = weibull_median /. Float.pow (Float.log 2.) (1. /. shape) in
  Float.max 1e-5 (Float.min 0.3 (Prng.weibull seed ~shape ~scale))

let independent_links ~graph ~seed () =
  let nedges = Flexile_net.Graph.nedges graph in
  create ~nedges
    (List.init nedges (fun e ->
         binary_unit ~uname:(Printf.sprintf "link-%d" e) ~regime:"independent"
           [| e |] (weibull_prob seed)))

let srlg ~nedges ~groups ~seed () =
  create ~nedges
    (List.init (Array.length groups) (fun gi ->
         binary_unit ~uname:(Printf.sprintf "srlg-%d" gi) ~regime:"srlg"
           (Array.copy groups.(gi)) (weibull_prob seed)))

(* (capacity fraction, weight): a hard cut, 30% and 70% of capacity *)
let partial_levels = [| (0., 0.5); (0.3, 0.3); (0.7, 0.2) |]

let partial ~graph ~seed () =
  let nedges = Flexile_net.Graph.nedges graph in
  let levels = partial_levels in
  let wtotal = Array.fold_left (fun a (_, w) -> a +. w) 0. levels in
  create ~nedges
    (List.init nedges (fun e ->
         let p = weibull_prob seed in
         {
           uname = Printf.sprintf "partial-%d" e;
           regime = "partial";
           edges = [| e |];
           states =
             Array.map (fun (frac, w) -> mk_state ~prob:(p *. w /. wtotal) ~frac ()) levels;
         }))

type window = {
  wname : string;
  wedges : int array;
  wstart : float;
  wduration : float;
}

(* Planned maintenance: a schedule of non-overlapping windows over an
   abstract planning horizon.  A uniformly drawn instant lands inside
   window w with probability wduration / horizon, and in at most one
   window — so the schedule is exactly ONE multi-state unit whose
   states are the windows, each removing its own links.  Purely a
   function of the schedule: no clock, no seed. *)
let maintenance ~nedges ~horizon windows =
  if horizon <= 0. then invalid_arg "Failure_model.maintenance: horizon <= 0";
  if windows = [] then invalid_arg "Failure_model.maintenance: no windows";
  List.iter
    (fun w ->
      if w.wduration <= 0. then
        invalid_arg
          (Printf.sprintf "Failure_model.maintenance: window %s duration <= 0" w.wname);
      if w.wstart < 0. || w.wstart +. w.wduration > horizon then
        invalid_arg
          (Printf.sprintf "Failure_model.maintenance: window %s outside the horizon"
             w.wname))
    windows;
  let sorted = List.sort (fun a b -> Float.compare a.wstart b.wstart) windows in
  let rec check_overlap = function
    | a :: (b :: _ as rest) ->
        if a.wstart +. a.wduration > b.wstart then
          invalid_arg
            (Printf.sprintf "Failure_model.maintenance: windows %s and %s overlap"
               a.wname b.wname);
        check_overlap rest
    | _ -> ()
  in
  check_overlap sorted;
  let union =
    Array.of_list
      (List.sort_uniq compare (List.concat_map (fun w -> Array.to_list w.wedges) sorted))
  in
  create ~nedges
    [
      {
        uname = "maintenance";
        regime = "maintenance";
        edges = union;
        states =
          Array.of_list
            (List.map
               (fun w ->
                 mk_state ~prob:(w.wduration /. horizon) ~frac:0.
                   ~sedges:(Array.copy w.wedges) ())
               sorted);
      };
    ]

let demand_states ~nedges ~name states =
  if Array.length states = 0 then invalid_arg "Failure_model.demand_states: no states";
  create ~nedges
    [
      {
        uname = name;
        regime = name;
        edges = [||];
        states = Array.map (fun (p, d) -> mk_state ~prob:p ~frac:0. ~demand:d ()) states;
      };
    ]

(* diurnal peak and trough: +/-25% at probability 0.2 each *)
let diurnal ~nedges =
  demand_states ~nedges ~name:"diurnal" [| (0.2, Scale 1.25); (0.2, Scale 0.75) |]

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sid : int;
  failed_units : int array;
  failed_states : int array;
  prob : float;
  edge_alive : bool array;
  cap_frac : float array;
  regime : string;
}

(* Per-edge capacity fraction of a scenario: product over the failed
   units whose active state touches the edge (composition of
   independent causes is multiplicative on capacity; for hard cuts
   the product is 0).  The edge set is the STATE's: states of a
   maintenance-calendar unit remove different links. *)
let fracs_of_failed t failed states =
  let frac = Array.make t.nedges 1. in
  Array.iteri
    (fun i u ->
      let unit = t.units.(u) in
      let s = unit.states.(states.(i)) in
      Array.iter (fun e -> frac.(e) <- frac.(e) *. s.frac) (state_edges unit s))
    failed;
  frac

(* A scenario is tagged with the regime of the units it degrades:
   "nominal" for the all-up scenario, the common regime when every
   failed unit agrees, "mixed" when regimes co-occur.  The tag is what
   lets attainment be reported conditioned on failure regime. *)
let regime_of_failed t failed =
  if Array.length failed = 0 then "nominal"
  else begin
    let r0 = t.units.(failed.(0)).regime in
    if Array.for_all (fun u -> String.equal t.units.(u).regime r0) failed then r0
    else "mixed"
  end

(* Best-first subset enumeration.  Each heap entry is a scenario whose
   children extend the failed set with a state of a strictly larger
   unit index; since every odds ratio is < 1 (total unit mass < 0.5,
   so each state's mass is below the nominal mass), children have
   smaller probability than their parent, so the heap pops scenarios
   in non-increasing probability order. *)
module Heap = struct
  type entry = { p : float; last : int; failed : (int * int) list }
  type h = { mutable data : entry array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let push h e =
    if h.size = Array.length h.data then begin
      let cap = max 64 (2 * h.size) in
      let d = Array.make cap e in
      Array.blit h.data 0 d 0 h.size;
      h.data <- d
    end;
    h.data.(h.size) <- e;
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if h.data.(!i).p > h.data.(parent).p then begin
        let tmp = h.data.(!i) in
        h.data.(!i) <- h.data.(parent);
        h.data.(parent) <- tmp;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let big = ref !i in
        if l < h.size && h.data.(l).p > h.data.(!big).p then big := l;
        if r < h.size && h.data.(r).p > h.data.(!big).p then big := r;
        if !big <> !i then begin
          let tmp = h.data.(!i) in
          h.data.(!i) <- h.data.(!big);
          h.data.(!big) <- tmp;
          i := !big
        end
        else continue := false
      done;
      Some top
    end
end

let enumerate ?(cutoff = 1e-6) ?(max_scenarios = 400) t =
  let mass = Array.map unit_mass t.units in
  let nunits = Array.length t.units in
  (* odds of unit u entering state s instead of staying nominal; the
     denominator is the unit's NOMINAL mass 1 - sum(states), which is
     what makes the enumerated probabilities of a multi-state unit sum
     with its unenumerated tail to exactly 1 *)
  let odds =
    Array.mapi
      (fun u unit -> Array.map (fun (s : state) -> s.prob /. (1. -. mass.(u))) unit.states)
      t.units
  in
  (* probability that every unit sits in its nominal state *)
  let base_prob = Array.fold_left (fun acc p -> acc *. (1. -. p)) 1. mass in
  let heap = Heap.create () in
  Heap.push heap { Heap.p = base_prob; last = -1; failed = [] };
  let out = ref [] in
  let count = ref 0 in
  let continue = ref true in
  while !continue && !count < max_scenarios do
    match Heap.pop heap with
    | None -> continue := false
    | Some { Heap.p; last; failed } ->
        if p < cutoff then continue := false
        else begin
          let pairs = Array.of_list (List.rev failed) in
          let failed_units = Array.map fst pairs in
          let failed_states = Array.map snd pairs in
          let cap_frac = fracs_of_failed t failed_units failed_states in
          out :=
            {
              sid = !count;
              failed_units;
              failed_states;
              prob = p;
              edge_alive = Array.map (fun f -> f > 0.) cap_frac;
              cap_frac;
              regime = regime_of_failed t failed_units;
            }
            :: !out;
          incr count;
          for j = last + 1 to nunits - 1 do
            Array.iteri
              (fun s o ->
                let child_p = p *. o in
                if child_p >= cutoff then
                  Heap.push heap { Heap.p = child_p; last = j; failed = (j, s) :: failed })
              odds.(j)
          done
        end
  done;
  Array.of_list (List.rev !out)

let coverage scenarios = Array.fold_left (fun acc s -> acc +. s.prob) 0. scenarios

let has_demand t =
  Array.exists
    (fun u -> Array.exists (fun s -> match s.demand with No_change -> false | _ -> true) u.states)
    t.units

let inferred_npairs t =
  Array.fold_left
    (fun acc u ->
      Array.fold_left
        (fun acc s ->
          match (s.demand, acc) with
          | Per_pair fs, Some m when m <> Array.length fs ->
              invalid_arg "Failure_model: inconsistent per-pair factor lengths"
          | Per_pair fs, None -> Some (Array.length fs)
          | _ -> acc)
        acc u.states)
    None t.units

let pair_factors_of_scenario t ~npairs s =
  let factors = Array.make npairs 1. in
  Array.iteri
    (fun i u ->
      match t.units.(u).states.(s.failed_states.(i)).demand with
      | No_change -> ()
      | Scale f ->
          for p = 0 to npairs - 1 do
            factors.(p) <- factors.(p) *. f
          done
      | Per_pair fs ->
          for p = 0 to npairs - 1 do
            factors.(p) <- factors.(p) *. fs.(p)
          done)
    s.failed_units;
  factors

let pair_factors ?npairs t scenarios =
  if not (has_demand t) then None
  else begin
    let npairs =
      match (npairs, inferred_npairs t) with
      | Some n, Some m ->
          if n <> m then invalid_arg "Failure_model.pair_factors: npairs mismatch";
          n
      | Some n, None | None, Some n -> n
      | None, None ->
          invalid_arg "Failure_model.pair_factors: npairs required for uniform demand states"
    in
    Some (Array.map (pair_factors_of_scenario t ~npairs) scenarios)
  end
