(* Seeded byte mutations for parser fuzzing: each case is a seed
   document with one to four bytes replaced, deleted or inserted, or
   its tail cut.  Inserted and replacing bytes favour JSON's structural
   characters, so mutations reach past the first token. *)

let rand () = Random.State.make [| 27 |]

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
