(* Tests for the utility layer: PRNG determinism and stream
   independence, statistics not covered elsewhere, and the JSON writer
   and reader. *)

module Prng = Flexile_util.Prng
module Stats = Flexile_util.Stats
module Json = Flexile_util.Json
module Trace = Flexile_util.Trace

let quick name f = Alcotest.test_case name `Quick f

let test_prng_deterministic () =
  let a = Prng.of_string "seed-x" and b = Prng.of_string "seed-x" in
  for _ = 1 to 100 do
    if Prng.float a <> Prng.float b then Alcotest.fail "streams diverged"
  done

let test_prng_distinct_names () =
  let a = Prng.of_string "seed-x" and b = Prng.of_string "seed-y" in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.float a = Prng.float b then incr same
  done;
  if !same > 0 then Alcotest.fail "different names produced equal outputs"

let test_prng_split_independent () =
  (* drawing from a child stream must not perturb the parent *)
  let p1 = Prng.of_string "parent" in
  let p2 = Prng.of_string "parent" in
  let c1 = Prng.split p1 "child" and c2 = Prng.split p2 "child" in
  let x1 = Prng.float c1 in
  for _ = 1 to 10 do
    ignore (Prng.float c1)
  done;
  let x2 = Prng.float c2 in
  Alcotest.(check (float 0.)) "children equal at the start" x1 x2;
  Alcotest.(check bool) "parents stay in sync" true
    (Prng.float p1 = Prng.float p2)

let test_prng_ranges () =
  let p = Prng.of_string "ranges" in
  for _ = 1 to 1000 do
    let f = Prng.float p in
    if f < 0. || f >= 1. then Alcotest.fail "float out of [0,1)";
    let i = Prng.int p 7 in
    if i < 0 || i >= 7 then Alcotest.fail "int out of range"
  done

let test_prng_uniformity () =
  (* crude: mean of uniforms near 0.5 *)
  let p = Prng.of_string "uniformity" in
  let n = 20_000 in
  let s = ref 0. in
  for _ = 1 to n do
    s := !s +. Prng.float p
  done;
  let mean = !s /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then
    Alcotest.failf "mean %.4f too far from 0.5" mean

let test_weibull_positive () =
  let p = Prng.of_string "weibull" in
  for _ = 1 to 1000 do
    let x = Prng.weibull p ~shape:0.8 ~scale:0.001 in
    if x <= 0. || Float.is_nan x then Alcotest.fail "weibull sample invalid"
  done

let test_shuffle_permutation () =
  let p = Prng.of_string "shuffle" in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Prng.shuffle p b;
  Array.sort compare b;
  Alcotest.(check bool) "is a permutation" true (a = b)

let test_weighted_cdf () =
  let cdf = Stats.weighted_cdf [| (0.3, 0.2); (0.1, 0.5); (0.2, 0.3) |] in
  match cdf with
  | [ (v1, c1); (v2, c2); (v3, c3) ] ->
      Alcotest.(check (float 1e-9)) "v1" 0.1 v1;
      Alcotest.(check (float 1e-9)) "c1" 0.5 c1;
      Alcotest.(check (float 1e-9)) "v2" 0.2 v2;
      Alcotest.(check (float 1e-9)) "c2" 0.8 c2;
      Alcotest.(check (float 1e-9)) "v3" 0.3 v3;
      Alcotest.(check (float 1e-9)) "c3" 1.0 c3
  | _ -> Alcotest.fail "unexpected cdf length"

(* ---- JSON ---- *)

let test_number_rule () =
  List.iter
    (fun (x, text) ->
      Alcotest.(check string) (Printf.sprintf "%h" x) text (Json.encode (Json.Number x)))
    [
      (0., "0"); (-0., "-0"); (3., "3"); (-42., "-42"); (0.1, "0.1");
      (1. /. 3., "0.3333333333333333"); (1e20, "1e+20"); (1.5e-7, "1.5e-07");
      (0x1p53 -. 1., "9007199254740991"); (0x1p53, "9007199254740992");
      (Float.nan, "null"); (infinity, "null"); (neg_infinity, "null");
      (5e-324, "4.94065645841247e-324");
    ];
  Alcotest.(check string) "compact, escaped"
    {|{"a\"b":[true,null,"\u0009\n\u0001\\"],"":{}}|}
    (Json.encode
       (Json.Object
          [
            ("a\"b", Json.Array [ Json.Bool true; Json.Null; Json.String "\t\n\001\\" ]);
            ("", Json.Object []);
          ]))

let test_to_int () =
  Alcotest.(check (list (option int)))
    "integral and in range only"
    [ Some 3; Some (-7); None; None; None; None ]
    (List.map Json.to_int
       [
         Json.Number 3.; Json.Number (-7.); Json.Number 1.5; Json.Number 1e300;
         Json.Number Float.nan; Json.String "3";
       ])

(* Random finite documents: strings of arbitrary bytes (control
   characters and non-ASCII included), numbers from random bit
   patterns, subnormals, signed zeros and integers near 2^53. *)
let gen_string st =
  String.init (Random.State.int st 8) (fun _ ->
      match Random.State.int st 4 with
      | 0 -> Char.chr (Random.State.int st 0x20)
      | 1 -> "\"\\/".[Random.State.int st 3]
      | _ -> Char.chr (Random.State.int st 256))

let gen_number st =
  let sign x = if Random.State.bool st then x else -.x in
  match Random.State.int st 6 with
  | 0 ->
      let rec finite () =
        let x = Int64.float_of_bits (Random.State.bits64 st) in
        if Float.is_finite x then x else finite ()
      in
      finite ()
  | 1 -> sign (Int64.float_of_bits (Random.State.int64 st 0x000F_FFFF_FFFF_FFFFL))
  | 2 -> sign 0.
  | 3 -> sign (0x1p53 +. Float.of_int (Random.State.int st 9 - 4))
  | 4 -> Float.of_int (Random.State.int st 2001 - 1000)
  | _ -> Random.State.float st 2000. -. 1000.

let rec gen_doc depth st =
  match Random.State.int st (if depth = 0 then 4 else 6) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Random.State.bool st)
  | 2 -> Json.Number (gen_number st)
  | 3 -> Json.String (gen_string st)
  | 4 -> Json.Array (List.init (Random.State.int st 4) (fun _ -> gen_doc (depth - 1) st))
  | _ ->
      Json.Object
        (List.init (Random.State.int st 4) (fun _ ->
             (gen_string st, gen_doc (depth - 1) st)))

(* equality with numbers compared by their bits *)
let rec same a b =
  match (a, b) with
  | Json.Number x, Json.Number y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Array xs, Json.Array ys ->
      List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Object xs, Json.Object ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && same v v') xs ys
  | _ -> a = b

let prop_round_trip =
  QCheck.Test.make ~name:"parse (encode v) = Ok v" ~count:500
    (QCheck.make ~print:Json.encode (gen_doc 3))
    (fun v ->
      match Json.parse (Json.encode v) with Ok v' -> same v v' | Error _ -> false)

(* Seeded byte mutations of an encoded trace report: the reader
   answers Ok or Error, never an exception. *)
let prop_mutated_report_parses =
  let report =
    let was = Trace.enabled () in
    Trace.set_enabled true;
    Trace.incr (Trace.counter "test.fuzz_counter");
    Trace.observe (Trace.hist "test.fuzz_hist") 0.25;
    Trace.in_span (Trace.span "test.fuzz_span") (fun () -> ());
    let s = Json.encode (Flexile_util.Trace_export.report_json ()) in
    Trace.set_enabled was;
    s
  in
  QCheck.Test.make ~name:"mutated trace reports parse as Ok or Error" ~count:300
    (QCheck.make (Fuzz.mutation_gen report))
    (fun s -> match Json.parse s with Ok _ | Error _ -> true)

let () =
  Alcotest.run "flexile_util"
    [
      ( "prng",
        [
          quick "deterministic" test_prng_deterministic;
          quick "distinct names" test_prng_distinct_names;
          quick "split independence" test_prng_split_independent;
          quick "ranges" test_prng_ranges;
          quick "uniformity" test_prng_uniformity;
          quick "weibull" test_weibull_positive;
          quick "shuffle is a permutation" test_shuffle_permutation;
        ] );
      ( "stats",
        [
          quick "weighted cdf" test_weighted_cdf;
        ] );
      ( "json",
        [
          quick "number rule and escapes" test_number_rule;
          quick "to_int" test_to_int;
        ]
        @ List.map Fuzz.to_alcotest [ prop_round_trip; prop_mutated_report_parses ] );
    ]
