(* Seeded i3 violations: [@lint.noalloc] kernels that allocate
   directly, transitively, or via a closure, plus negative twins that
   stay inside the whitelist. *)

(* positive: a tuple materialises on every call *)
let[@lint.noalloc] bad_pair a i = (a.(i), i)

(* helper that allocates; not annotated itself *)
let leaky n = Array.make n 0.

(* positive: the allocation is one call away, witness chain
   bad_transitive -> leaky *)
let[@lint.noalloc] bad_transitive n =
  let a = leaky n in
  a.(0)

(* positive: a closure materialises in the body on every call *)
let[@lint.noalloc] bad_closure a =
  let f = fun i -> Array.get a i in
  f 0

(* negative: pure in-place arithmetic over caller-owned arrays *)
let[@lint.noalloc] saxpy alpha x y =
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

(* amortized growth, trusted by annotation like Sparse.grow_f *)
let[@lint.alloc_ok "amortized-doubling arena growth"] grow a needed =
  if Array.length a >= needed then a
  else begin
    let b = Array.make (max needed (2 * Array.length a)) 0. in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* negative: calls only whitelisted primitives and an alloc_ok callee *)
let[@lint.noalloc] ok_growth a needed v =
  let a = grow a needed in
  a.(needed - 1) <- v;
  a

(* negative: a scratch ref whose every use is a deref/assign is
   sanctioned (see DESIGN.md section 14) *)
let[@lint.noalloc] ok_local_ref x =
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. x.(i)
  done;
  !acc

(* positive: the float crosses a compilation-unit boundary, so -opaque
   boxes it on every call *)
let[@lint.noalloc] bad_cross_unit_float a i = a.(i) <- Fx_leaf.halve a.(i)

(* negative: an int-only call into another unit boxes nothing *)
let[@lint.noalloc] ok_cross_unit_int a i = a.(i) <- Fx_leaf.pure a.(i)
