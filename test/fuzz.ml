(* The random state of every QCheck property of the suite, and seeded
   byte mutations for parser fuzzing.

   Every property runs through [to_alcotest], whose random state is
   seeded from QCHECK_SEED when that is set and from 27 otherwise, so
   that each run of the suite draws the same cases and
   [make qcheck-seeds] can sweep others.

   A mutation case is a seed document with one to four bytes replaced,
   deleted or inserted, or its tail cut.  Inserted and replacing bytes
   favour JSON's structural characters, so mutations reach past the
   first token. *)

let to_alcotest t =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | None | Some "" -> 27
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> n
        | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let structural = "{}[]\":,\\-+.eE0123456789ntrufals "

let random_byte st =
  if Random.State.bool st then
    structural.[Random.State.int st (String.length structural)]
  else Char.chr (Random.State.int st 256)

let mutate st s =
  let n = String.length s in
  if n = 0 then String.make 1 (random_byte st)
  else
    let i = Random.State.int st n in
    let before = String.sub s 0 i and after = String.sub s (i + 1) (n - i - 1) in
    match Random.State.int st 4 with
    | 0 -> before ^ String.make 1 (random_byte st) ^ after
    | 1 -> before ^ after
    | 2 -> before ^ String.make 1 (random_byte st) ^ String.sub s i (n - i)
    | _ -> before

let mutation_gen s st =
  let rec go k s = if k = 0 then s else go (k - 1) (mutate st s) in
  go (1 + Random.State.int st 4) s
