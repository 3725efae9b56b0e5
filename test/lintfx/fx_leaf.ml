(* Leaf layer of the seeded i1 violations: raw primitives, two hops
   below the entry points in Fx_entry. *)

(* i1 positive seed: global RNG *)
let noise n = Random.int n

(* negative: deterministic arithmetic, reachable from an entry point *)
let pure x = (x * 7) + 3

(* i1 seed that must NOT be reported: nothing reachable from the
   analysis roots ever calls this *)
let clock () = Unix.gettimeofday ()

(* i3 cross-unit callee: takes and returns a float *)
let halve x = x *. 0.5
