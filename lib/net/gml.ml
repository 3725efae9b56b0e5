(* A tiny recursive-descent parser for the GML subset used by the
   Internet Topology Zoo: a stream of [key value] pairs where a value
   is a number, a quoted string, or a bracketed list of pairs.  Every
   malformed input raises [Malformed] internally, which [parse] turns
   into an [Error]. *)

type value =
  | Num of float
  | Str of string
  | Record of (string * value) list

exception Malformed of string

let malformed msg = raise (Malformed ("Gml.parse: " ^ msg))

let tokenize text =
  let tokens = ref [] in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '[' || c = ']' then begin
      tokens := String.make 1 c :: !tokens;
      incr i
    end
    else if c = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> '"' do
        incr j
      done;
      if !j >= n then malformed "unterminated string";
      tokens := ("\"" ^ String.sub text (!i + 1) (!j - !i - 1)) :: !tokens;
      i := !j + 1
    end
    else if c = '#' then begin
      (* comment to end of line *)
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else begin
      let j = ref !i in
      while
        !j < n
        &&
        let c = text.[!j] in
        not (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '[' || c = ']')
      do
        incr j
      done;
      tokens := String.sub text !i (!j - !i) :: !tokens;
      i := !j
    end
  done;
  List.rev !tokens

(* [depth] counts the records open around [tokens]: a [']'] closes
   one, and the tokens may end only at depth 0. *)
let rec parse_pairs ~depth tokens =
  match tokens with
  | [] -> if depth > 0 then malformed "unterminated record" else ([], [])
  | "]" :: rest ->
      if depth = 0 then malformed "unbalanced ]" else ([], rest)
  | key :: "[" :: rest ->
      let fields, rest = parse_pairs ~depth:(depth + 1) rest in
      let siblings, rest = parse_pairs ~depth rest in
      ((String.lowercase_ascii key, Record fields) :: siblings, rest)
  | key :: v :: rest ->
      let value =
        if String.length v > 0 && v.[0] = '"' then
          Str (String.sub v 1 (String.length v - 1))
        else
          match float_of_string_opt v with
          | Some f -> Num f
          | None -> Str v
      in
      let siblings, rest = parse_pairs ~depth rest in
      ((String.lowercase_ascii key, value) :: siblings, rest)
  | [ key ] -> malformed ("dangling key " ^ key)

let find_num fields names =
  List.fold_left
    (fun acc name ->
      match acc with
      | Some _ -> acc
      | None -> (
          match List.assoc_opt name fields with
          | Some (Num f) -> Some f
          | Some (Str s) -> float_of_string_opt s
          | _ -> None))
    None names

(* Recursively strip 1-degree nodes (the paper's preprocessing), then
   drop isolated nodes and re-index densely. *)
let prune_and_reindex ~name n links =
  let links = ref links in
  let changed = ref true in
  while !changed do
    changed := false;
    let degree = Array.make n 0 in
    List.iter
      (fun (u, v, _) ->
        degree.(u) <- degree.(u) + 1;
        degree.(v) <- degree.(v) + 1)
      !links;
    let keep (u, v, _) = degree.(u) >= 2 && degree.(v) >= 2 in
    let kept = List.filter keep !links in
    if List.length kept <> List.length !links then begin
      links := kept;
      changed := true
    end
  done;
  let used = Array.make n false in
  List.iter
    (fun (u, v, _) ->
      used.(u) <- true;
      used.(v) <- true)
    !links;
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if used.(v) then begin
      remap.(v) <- !next;
      incr next
    end
  done;
  let links =
    List.map (fun (u, v, c) -> (remap.(u), remap.(v), c)) !links
  in
  Graph.create ~name ~n:!next (Array.of_list links)

let graph_of_text ~name ~prune text =
  let fields, _ = parse_pairs ~depth:0 (tokenize text) in
  let graph_fields =
    match List.assoc_opt "graph" fields with
    | Some (Record f) -> f
    | _ -> malformed "no graph record"
  in
  (* collect nodes in order of appearance, mapping GML ids densely *)
  let ids = Hashtbl.create 64 in
  let count = ref 0 in
  List.iter
    (fun (key, v) ->
      match (key, v) with
      | "node", Record nf -> (
          match find_num nf [ "id" ] with
          | Some id ->
              if not (Hashtbl.mem ids id) then begin
                Hashtbl.replace ids id !count;
                incr count
              end
          | None -> malformed "node without id")
      | _ -> ())
    graph_fields;
  (* Topology Zoo's LinkSpeedRaw is in bits/s, whatever unit LinkSpeed
     was written in; once one edge carries it, every edge must, or the
     others' capacities would be in another unit *)
  let raw_speeds =
    List.exists
      (function
        | "edge", Record ef -> find_num ef [ "linkspeedraw" ] <> None
        | _ -> false)
      graph_fields
  in
  let seen_links = Hashtbl.create 64 in
  let links = ref [] in
  List.iter
    (fun (key, v) ->
      match (key, v) with
      | "edge", Record ef -> (
          match (find_num ef [ "source" ], find_num ef [ "target" ]) with
          | Some s, Some t -> (
              match (Hashtbl.find_opt ids s, Hashtbl.find_opt ids t) with
              | Some u, Some v when u <> v ->
                  (* topology-zoo files often list parallel edges; keep
                     one per pair *)
                  let k = if u < v then (u, v) else (v, u) in
                  if not (Hashtbl.mem seen_links k) then begin
                    Hashtbl.replace seen_links k ();
                    let keys =
                      if raw_speeds then [ "linkspeedraw" ]
                      else [ "linkspeed"; "bandwidth"; "capacity" ]
                    in
                    let cap =
                      match find_num ef keys with
                      | Some c when not (Float.is_finite c) ->
                          malformed (Printf.sprintf "capacity %g is not finite" c)
                      | Some c when c <= 0. ->
                          malformed (Printf.sprintf "capacity %g is not positive" c)
                      | Some c -> c
                      | None when raw_speeds ->
                          malformed "edge without LinkSpeedRaw in a file whose other edges carry it"
                      | None -> 1.0
                    in
                    links := (u, v, cap) :: !links
                  end
              | Some _, Some _ -> () (* self loop: drop *)
              | _ -> malformed "edge endpoint not declared")
          | _ -> malformed "edge without source/target")
      | _ -> ())
    graph_fields;
  let links = List.rev !links in
  if prune then prune_and_reindex ~name !count links
  else Graph.create ~name ~n:!count (Array.of_list links)

let parse ?(name = "gml") ?(prune = true) text =
  match graph_of_text ~name ~prune text with
  | g -> Ok g
  | exception Malformed msg -> Error msg

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text ->
      let name = Filename.remove_extension (Filename.basename path) in
      parse ~name text
  | exception Sys_error msg -> Error msg
