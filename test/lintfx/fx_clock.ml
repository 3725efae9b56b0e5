(* Seeded clock-in-branch cases for d1: a Trace clock read that decides
   a branch answers differently on a slower machine. *)
module T = Flexile_util.Trace

(* positive: the clock in an if condition *)
let deadline t0 = if Flexile_util.Trace.now_s () -. t0 > 1. then 0 else 1

(* positive: through a module alias, in a while condition *)
let spin t0 =
  let n = ref 0 in
  while T.now_s () -. t0 < 0.001 do
    incr n
  done;
  !n

(* positive: in a when guard *)
let pick t0 x = match x with Some v when T.now_ns () > t0 -> v | _ -> 0

(* negative: a measurement, not a branch *)
let elapsed t0 = Flexile_util.Trace.now_s () -. t0

(* negative, by the rule's boundary: a read bound by let and tested
   later is not seen *)
let late t0 =
  let t = T.now_s () in
  if t -. t0 > 1. then 0 else 1
