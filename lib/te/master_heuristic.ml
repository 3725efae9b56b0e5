type cut = { target : int; coef : (int * float) array; const : float }

(* Flags live in flat bytes indexed [f * nq + q], '\001' for critical.
   Cut entry [i] of cut [k] (i in [cut_start.(k), cut_start.(k+1)))
   reads flag [cut_idx.(i)] of flow [cut_fid.(i)] with dual [cut_d.(i)];
   [cuts_of.(q)] lists the cuts targeting q in list order.  Variable [i] is flag [var_idx.(i)], model variable
   [var_v.(i)]; flow f's are [var_start.(f) .. var_start.(f+1) - 1], in
   ascending scenario order. *)
type t = {
  nf : int;
  nq : int;
  prob : float array;
  active : bool array;
  cov_target : float array;
  base : Bytes.t;  (* z_prev *)
  mask : Bytes.t;  (* perfect.(q) && z_prev.(f).(q): critical regardless *)
  z : Bytes.t;  (* the call's flags *)
  var_start : int array;
  var_idx : int array;
  var_v : int array;
  (* coverage of flow f is [cov0.(f)] plus the fold over q >= fold_from.(f),
     its first variable: below it every term keeps its z_prev value *)
  fold_from : int array;
  cov0 : float array;
  cov : float array;
  cut_target : int array;
  cut_const : float array;
  cut_start : int array;
  cut_fid : int array;
  cut_idx : int array;
  cut_d : float array;
  cut_val : float array;
  cuts_of : int array array;
  penalty : int;
  hamming_limit : int option;
  cand : float array;
}

let on = '\001'
let off = '\000'

let create ~prob ~active ~coverage_target ~perfect ~z_prev ~zv ~cuts ~penalty
    ~nvars ~hamming_limit =
  let nf = Array.length z_prev and nq = Array.length prob in
  let base = Bytes.make (nf * nq) off and mask = Bytes.make (nf * nq) off in
  for f = 0 to nf - 1 do
    for q = 0 to nq - 1 do
      if z_prev.(f).(q) then begin
        Bytes.set base ((f * nq) + q) on;
        if perfect.(q) then Bytes.set mask ((f * nq) + q) on
      end
    done
  done;
  let cuts = Array.of_list cuts in
  let ncuts = Array.length cuts in
  let cut_start = Array.make (ncuts + 1) 0 in
  Array.iteri
    (fun k c -> cut_start.(k + 1) <- cut_start.(k) + Array.length c.coef)
    cuts;
  let nnz = cut_start.(ncuts) in
  let cut_fid = Array.make nnz 0 and cut_idx = Array.make nnz 0 in
  let cut_d = Array.make nnz 0. in
  Array.iteri
    (fun k c ->
      Array.iteri
        (fun j (fid, d) ->
          let i = cut_start.(k) + j in
          cut_fid.(i) <- fid;
          cut_idx.(i) <- (fid * nq) + c.target;
          cut_d.(i) <- d)
        c.coef)
    cuts;
  let cuts_of = Array.make nq [] in
  for k = ncuts - 1 downto 0 do
    cuts_of.(cuts.(k).target) <- k :: cuts_of.(cuts.(k).target)
  done;
  let var_start = Array.make (nf + 1) 0 in
  for f = 0 to nf - 1 do
    let n = ref 0 in
    Array.iter (fun v -> if v >= 0 then incr n) zv.(f);
    var_start.(f + 1) <- var_start.(f) + !n
  done;
  let nv = var_start.(nf) in
  let var_idx = Array.make nv 0 and var_v = Array.make nv 0 in
  let fold_from = Array.make nf nq and cov0 = Array.make nf 0. in
  for f = 0 to nf - 1 do
    let i = ref var_start.(f) in
    for q = 0 to nq - 1 do
      let idx = (f * nq) + q in
      if zv.(f).(q) >= 0 then begin
        var_idx.(!i) <- idx;
        var_v.(!i) <- zv.(f).(q);
        incr i
      end;
      (* a fixed term is z_prev.(f).(q) (the mask implies it) *)
      if fold_from.(f) = nq then
        if zv.(f).(q) >= 0 then fold_from.(f) <- q
        else if Bytes.get base idx = on then cov0.(f) <- cov0.(f) +. prob.(q)
    done
  done;
  {
    nf;
    nq;
    prob;
    active;
    cov_target = coverage_target;
    base;
    mask;
    z = Bytes.create (nf * nq);
    var_start;
    var_idx;
    var_v;
    fold_from;
    cov0;
    cov = Array.copy cov0;
    cut_target = Array.map (fun c -> c.target) cuts;
    cut_const = Array.map (fun c -> c.const) cuts;
    cut_start;
    cut_fid;
    cut_idx;
    cut_d;
    cut_val = Array.make ncuts 0.;
    cuts_of = Array.map Array.of_list cuts_of;
    penalty;
    hamming_limit;
    cand = Array.make nvars 0.;
  }

(* Flow f's critical mass: perfect scenarios the previous plan had
   critical count as critical. *)
let[@lint.noalloc] fold_coverage t f =
  let row = f * t.nq in
  let mass = ref t.cov0.(f) in
  for q = t.fold_from.(f) to t.nq - 1 do
    if Bytes.get t.z (row + q) = on || Bytes.get t.mask (row + q) = on then
      mass := !mass +. t.prob.(q)
  done;
  t.cov.(f) <- !mass

let[@lint.noalloc] fold_cut t k =
  let v = ref t.cut_const.(k) in
  for i = t.cut_start.(k) to t.cut_start.(k + 1) - 1 do
    if Bytes.get t.z t.cut_idx.(i) = on then v := !v +. t.cut_d.(i)
  done;
  t.cut_val.(k) <- !v

(* The largest cut value, floored at 0., first maximum in list order. *)
let[@inline][@lint.noalloc] max_cut t =
  let m = ref 0. in
  for k = 0 to Array.length t.cut_val - 1 do
    m := Float.max !m t.cut_val.(k)
  done;
  !m

let set_flag t f q c =
  Bytes.set t.z ((f * t.nq) + q) c;
  fold_coverage t f;
  Array.iter (fold_cut t) t.cuts_of.(q)

(* Re-add flow f's uncritical variables, highest LP value first, then
   highest probability, ties in scenario order, until its coverage
   meets the target. *)
let repair t lp_x f =
  let row = f * t.nq and cands = ref [] in
  for i = t.var_start.(f + 1) - 1 downto t.var_start.(f) do
    if Bytes.get t.z t.var_idx.(i) = off then cands := i :: !cands
  done;
  let cands = Array.of_list !cands in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare lp_x.(t.var_v.(b)) lp_x.(t.var_v.(a)) in
      if c <> 0 then c
      else
        Float.compare t.prob.(t.var_idx.(b) - row) t.prob.(t.var_idx.(a) - row))
    cands;
  let mass = ref t.cov.(f) in
  Array.iter
    (fun i ->
      if !mass < t.cov_target.(f) then begin
        Bytes.set t.z t.var_idx.(i) on;
        mass := !mass +. t.prob.(t.var_idx.(i) - row)
      end)
    cands;
  fold_coverage t f

(* One local-improvement step: the heaviest critical flag of a
   max-achieving cut whose flow keeps its coverage without it, or
   [-1]. *)
let heaviest_flag t cur =
  let best = ref (-1) and best_d = ref 0. in
  for k = 0 to Array.length t.cut_val - 1 do
    if Float.abs (t.cut_val.(k) -. cur) < 1e-12 then begin
      let q = t.cut_target.(k) in
      for i = t.cut_start.(k) to t.cut_start.(k + 1) - 1 do
        let f = t.cut_fid.(i) and d = t.cut_d.(i) in
        if
          Bytes.get t.z t.cut_idx.(i) = on
          && d > 1e-9
          && t.cov.(f) -. t.prob.(q) >= t.cov_target.(f) -. 1e-12
          && (!best < 0 || !best_d < d)
        then begin
          best := t.cut_idx.(i);
          best_d := d
        end
      done
    end
  done;
  !best

let improve t =
  let continue_ = ref true and steps = ref 0 in
  while !continue_ && !steps < 2 * t.nq do
    incr steps;
    continue_ := false;
    let cur = max_cut t in
    if cur > 1e-9 then begin
      let idx = heaviest_flag t cur in
      if idx >= 0 then begin
        let f = idx / t.nq and q = idx mod t.nq in
        set_flag t f q off;
        if max_cut t < cur -. 1e-12 then continue_ := true
        else set_flag t f q on
      end
    end
  done

let hamming_ok t =
  match t.hamming_limit with
  | None -> true
  | Some limit ->
      let dist = ref 0 in
      Array.iter
        (fun idx -> if Bytes.get t.z idx <> Bytes.get t.base idx then incr dist)
        t.var_idx;
      !dist <= limit

let run t lp_x =
  Bytes.blit t.base 0 t.z 0 (Bytes.length t.base);
  (* LP-guided rounding on the master's variables *)
  Array.iteri
    (fun i idx -> Bytes.set t.z idx (if lp_x.(t.var_v.(i)) >= 0.5 then on else off))
    t.var_idx;
  for f = 0 to t.nf - 1 do
    if t.fold_from.(f) < t.nq then fold_coverage t f
  done;
  for f = 0 to t.nf - 1 do
    if t.active.(f) && t.cov.(f) < t.cov_target.(f) then repair t lp_x f
  done;
  for k = 0 to Array.length t.cut_val - 1 do
    fold_cut t k
  done;
  improve t;
  if not (hamming_ok t) then None
  else begin
    t.cand.(t.penalty) <- max_cut t;
    Array.iteri
      (fun i idx -> t.cand.(t.var_v.(i)) <- (if Bytes.get t.z idx = on then 1. else 0.))
      t.var_idx;
    Some t.cand
  end
