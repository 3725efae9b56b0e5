(* Minimal JSON: the one writer every report of this repository is
   encoded with (trace reports, Chrome traces, monitor snapshots,
   doctor reports and dumps, the lint summary), and a reader just
   enough to parse them back, without adding a dependency.  Numbers
   are floats, objects keep their textual field order. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue_ := false
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string_raw st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  fail st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail st "bad \\u escape"
                in
                st.pos <- st.pos + 4;
                (* UTF-8 encode the BMP code point; surrogate pairs are
                   passed through as two encoded halves, which is enough
                   for the ASCII-heavy documents we emit *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail st "unknown escape");
            loop ())
    | Some c ->
        advance st;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Number f
  | None -> fail st (Printf.sprintf "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Object []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let key = parse_string_raw st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (key, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ()
          | Some '}' -> advance st
          | _ -> fail st "expected ',' or '}'"
        in
        members ();
        Object (List.rev !fields)
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Array []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements ()
          | Some ']' -> advance st
          | _ -> fail st "expected ',' or ']'"
        in
        elements ();
        Array (List.rev !items)
      end
  | Some '"' -> String (parse_string_raw st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

(* [int] spans [-2^62, 2^62) on 64-bit hosts; a float outside it or
   with a fraction is not an int, rather than a truncated one *)
let to_int = function
  | Number f
    when Float.is_integer f
         && f >= Int.to_float min_int
         && f < -.Int.to_float min_int ->
      Some (Float.to_int f)
  | _ -> None

let to_string = function String s -> Some s | _ -> None
let to_list = function Array l -> Some l | _ -> None

(* ---- writing ---- *)

let int n = Number (Int.to_float n)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The one number rule: the text depends only on the bits, so equal
   values encode to equal bytes, and it reads back to the same bits. *)
let number_text x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 0x1p53 then
    Printf.sprintf "%.0f" x
  else
    let reads_back s = Float_cmp.exactly_equal (float_of_string s) x in
    let s15 = Printf.sprintf "%.15g" x in
    if reads_back s15 then s15
    else
      let s16 = Printf.sprintf "%.16g" x in
      if reads_back s16 then s16 else Printf.sprintf "%.17g" x

let add_seq b lo hi f items =
  Buffer.add_char b lo;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x)
    items;
  Buffer.add_char b hi

let rec add_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Number x -> Buffer.add_string b (number_text x)
  | String s -> add_escaped b s
  | Array items -> add_seq b '[' ']' (add_value b) items
  | Object fields ->
      add_seq b '{' '}'
        (fun (k, v) ->
          add_escaped b k;
          Buffer.add_char b ':';
          add_value b v)
        fields

let encode v =
  let b = Buffer.create 1024 in
  add_value b v;
  Buffer.contents b

let write_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (encode v);
      output_char oc '\n')
