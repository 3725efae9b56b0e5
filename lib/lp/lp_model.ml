module Tbl = Flexile_util.Tbl
module Float_cmp = Flexile_util.Float_cmp

type sense = Le | Ge | Eq

type var = int
type row = int

type csc = {
  col_start : int array;
  row_idx : int array;
  values : float array;
}

type csr = {
  row_start : int array;
  col_idx : int array;
  row_values : float array;
}

type t = {
  model_name : string;
  (* variables *)
  mutable nv : int;
  mutable lbs : float array;
  mutable ubs : float array;
  mutable objs : float array;
  mutable vnames : string array;
  (* rows *)
  mutable nr : int;
  mutable senses : sense array;
  mutable rhss : float array;
  mutable rnames : string array;
  (* row-wise sparse storage: per-row arrays of (var, coef) *)
  mutable row_cols : int array array;
  mutable row_vals : float array array;
  mutable nnz : int;
  (* lazily-built column and row views *)
  mutable csc_cache : csc option;
  mutable csr_cache : csr option;
}

let create ?(name = "lp") () =
  {
    model_name = name;
    nv = 0;
    lbs = Array.make 16 0.;
    ubs = Array.make 16 0.;
    objs = Array.make 16 0.;
    vnames = Array.make 16 "";
    nr = 0;
    senses = Array.make 16 Le;
    rhss = Array.make 16 0.;
    rnames = Array.make 16 "";
    row_cols = Array.make 16 [||];
    row_vals = Array.make 16 [||];
    nnz = 0;
    csc_cache = None;
    csr_cache = None;
  }

let name t = t.model_name

let nvars t = t.nv
let nrows t = t.nr

let grow_floats a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_any a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let check_bound what x =
  if Float.is_nan x then invalid_arg (Printf.sprintf "Lp_model: NaN %s" what)

let add_var t ?(name = "") ?(lb = 0.) ?(ub = infinity) ?(obj = 0.) () =
  check_bound "lower bound" lb;
  check_bound "upper bound" ub;
  if lb > ub then invalid_arg "Lp_model.add_var: lb > ub";
  let j = t.nv in
  t.lbs <- grow_floats t.lbs (j + 1) 0.;
  t.ubs <- grow_floats t.ubs (j + 1) infinity;
  t.objs <- grow_floats t.objs (j + 1) 0.;
  t.vnames <- grow_any t.vnames (j + 1) "";
  t.lbs.(j) <- lb;
  t.ubs.(j) <- ub;
  t.objs.(j) <- obj;
  t.vnames.(j) <- (if name = "" then "x" ^ string_of_int j else name);
  t.nv <- j + 1;
  t.csc_cache <- None;
  t.csr_cache <- None;
  j

let add_row t ?(name = "") sense rhs coeffs =
  check_bound "rhs" rhs;
  let i = t.nr in
  (* Sum duplicates, drop exact zeros, validate indices. *)
  let tbl = Hashtbl.create (List.length coeffs) in
  List.iter
    (fun (v, c) ->
      if v < 0 || v >= t.nv then
        invalid_arg
          (Printf.sprintf "Lp_model.add_row: variable %d out of range" v);
      check_bound "coefficient" c;
      let prev = try Hashtbl.find tbl v with Not_found -> 0. in
      Hashtbl.replace tbl v (prev +. c))
    coeffs;
  let pairs =
    Tbl.sorted_bindings tbl
    |> List.filter (fun (_, c) -> Float_cmp.nonzero c)
  in
  let k = List.length pairs in
  let cols = Array.make k 0 and vals = Array.make k 0. in
  List.iteri
    (fun idx (v, c) ->
      cols.(idx) <- v;
      vals.(idx) <- c)
    pairs;
  t.senses <- grow_any t.senses (i + 1) Le;
  t.rhss <- grow_floats t.rhss (i + 1) 0.;
  t.rnames <- grow_any t.rnames (i + 1) "";
  t.row_cols <- grow_any t.row_cols (i + 1) [||];
  t.row_vals <- grow_any t.row_vals (i + 1) [||];
  t.senses.(i) <- sense;
  t.rhss.(i) <- rhs;
  t.rnames.(i) <- (if name = "" then "r" ^ string_of_int i else name);
  t.row_cols.(i) <- cols;
  t.row_vals.(i) <- vals;
  t.nnz <- t.nnz + k;
  t.nr <- i + 1;
  t.csc_cache <- None;
  t.csr_cache <- None;
  i

let check_row t i =
  if i < 0 || i >= t.nr then invalid_arg "Lp_model: row out of range"

let check_var t j =
  if j < 0 || j >= t.nv then invalid_arg "Lp_model: variable out of range"

let rhs t i =
  check_row t i;
  t.rhss.(i)

let row_sense t i =
  check_row t i;
  t.senses.(i)

let obj_coef t j =
  check_var t j;
  t.objs.(j)

let lb t j =
  check_var t j;
  t.lbs.(j)

let ub t j =
  check_var t j;
  t.ubs.(j)

let var_name t j =
  check_var t j;
  t.vnames.(j)

let row_name t i =
  check_row t i;
  t.rnames.(i)

let row_coeffs t i =
  check_row t i;
  let cols = t.row_cols.(i) and vals = t.row_vals.(i) in
  Array.to_list (Array.init (Array.length cols) (fun k -> (cols.(k), vals.(k))))

let csc t =
  match t.csc_cache with
  | Some c -> c
  | None ->
      let counts = Array.make (t.nv + 1) 0 in
      for i = 0 to t.nr - 1 do
        Array.iter (fun j -> counts.(j + 1) <- counts.(j + 1) + 1) t.row_cols.(i)
      done;
      for j = 1 to t.nv do
        counts.(j) <- counts.(j) + counts.(j - 1)
      done;
      let col_start = Array.copy counts in
      let fill = Array.copy counts in
      let row_idx = Array.make t.nnz 0 in
      let values = Array.make t.nnz 0. in
      for i = 0 to t.nr - 1 do
        let cols = t.row_cols.(i) and vals = t.row_vals.(i) in
        for k = 0 to Array.length cols - 1 do
          let j = cols.(k) in
          let pos = fill.(j) in
          row_idx.(pos) <- i;
          values.(pos) <- vals.(k);
          fill.(j) <- pos + 1
        done
      done;
      let c = { col_start; row_idx; values } in
      t.csc_cache <- Some c;
      c

let csr t =
  match t.csr_cache with
  | Some c -> c
  | None ->
      let row_start = Array.make (t.nr + 1) 0 in
      for i = 0 to t.nr - 1 do
        row_start.(i + 1) <- row_start.(i) + Array.length t.row_cols.(i)
      done;
      let col_idx = Array.make t.nnz 0 and row_values = Array.make t.nnz 0. in
      for i = 0 to t.nr - 1 do
        Array.blit t.row_cols.(i) 0 col_idx row_start.(i) (Array.length t.row_cols.(i));
        Array.blit t.row_vals.(i) 0 row_values row_start.(i) (Array.length t.row_vals.(i))
      done;
      let c = { row_start; col_idx; row_values } in
      t.csr_cache <- Some c;
      c

let objective_value t x =
  if Array.length x <> t.nv then invalid_arg "Lp_model.objective_value";
  let s = ref 0. in
  for j = 0 to t.nv - 1 do
    s := !s +. (t.objs.(j) *. x.(j))
  done;
  !s

let row_activity t i x =
  check_row t i;
  let cols = t.row_cols.(i) and vals = t.row_vals.(i) in
  let s = ref 0. in
  for k = 0 to Array.length cols - 1 do
    s := !s +. (vals.(k) *. x.(cols.(k)))
  done;
  !s

let max_violation t x =
  let worst = ref 0. in
  for j = 0 to t.nv - 1 do
    worst := Float.max !worst (t.lbs.(j) -. x.(j));
    worst := Float.max !worst (x.(j) -. t.ubs.(j))
  done;
  for i = 0 to t.nr - 1 do
    let a = row_activity t i x in
    (match t.senses.(i) with
    | Le -> worst := Float.max !worst (a -. t.rhss.(i))
    | Ge -> worst := Float.max !worst (t.rhss.(i) -. a)
    | Eq -> worst := Float.max !worst (Float.abs (a -. t.rhss.(i))));
    ()
  done;
  !worst
