type path = int array

let nodes g ~src p =
  let out = Array.make (Array.length p + 1) src in
  let cur = ref src in
  Array.iteri
    (fun i eid ->
      let e = g.Graph.edges.(eid) in
      let nxt = Graph.other_endpoint e !cur in
      out.(i + 1) <- nxt;
      cur := nxt)
    p;
  out

(* every edge weighs 1: a path's length is its hop count *)
let length p = float_of_int (Array.length p)

(* Binary-heap priority queue over (distance, node). *)
module Heap = struct
  type t = {
    mutable data : (float * int) array;
    mutable size : int;
  }

  let create () = { data = Array.make 64 (0., 0); size = 0 }

  let push h x =
    if h.size = Array.length h.data then begin
      let d = Array.make (2 * h.size) (0., 0) in
      Array.blit h.data 0 d 0 h.size;
      h.data <- d
    end;
    h.data.(h.size) <- x;
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if fst h.data.(!i) < fst h.data.(parent) then begin
        let tmp = h.data.(!i) in
        h.data.(!i) <- h.data.(parent);
        h.data.(parent) <- tmp;
        i := parent
      end
      else continue := false
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then
          smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then
          smallest := r;
        if !smallest <> !i then begin
          let tmp = h.data.(!i) in
          h.data.(!i) <- h.data.(!smallest);
          h.data.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

let shortest g ?(edge_ok = fun _ -> true) ?(node_ok = fun _ -> true) ~src ~dst () =
  let n = g.Graph.n in
  let dist = Array.make n infinity in
  let via = Array.make n (-1) in
  (* edge used to reach each node *)
  let heap = Heap.create () in
  dist.(src) <- 0.;
  Heap.push heap (0., src);
  let finished = ref false in
  while not !finished do
    match Heap.pop heap with
    | None -> finished := true
    | Some (d, x) ->
        if x = dst then finished := true
        else if d <= dist.(x) then
          List.iter
            (fun (eid, y) ->
              if edge_ok eid && (y = dst || y = src || node_ok y) then begin
                let nd = d +. 1. in
                if nd < dist.(y) -. 1e-12 then begin
                  dist.(y) <- nd;
                  via.(y) <- eid;
                  Heap.push heap (nd, y)
                end
              end)
            g.Graph.adj.(x)
  done;
  if Flexile_util.Float_cmp.exactly_equal dist.(dst) infinity then None
  else begin
    let rev = ref [] in
    let cur = ref dst in
    while !cur <> src do
      let eid = via.(!cur) in
      rev := eid :: !rev;
      cur := Graph.other_endpoint g.Graph.edges.(eid) !cur
    done;
    Some (Array.of_list !rev)
  end

let overlap p q =
  let h = Hashtbl.create (Array.length p) in
  Array.iter (fun e -> Hashtbl.replace h e ()) p;
  Array.fold_left (fun acc e -> if Hashtbl.mem h e then acc + 1 else acc) 0 q

let path_equal (p : path) q = p = q

let k_shortest g ~k ~src ~dst () =
  match shortest g ~src ~dst () with
  | None -> []
  | Some first ->
      let found = ref [ first ] in
      let candidates = ref [] in
      (* candidates: (cost, path), kept sorted by cost *)
      let add_candidate p =
        let c = length p in
        if
          not
            (List.exists (fun (_, q) -> path_equal p q) !candidates
            || List.exists (path_equal p) !found)
        then candidates := List.merge compare [ (c, p) ] !candidates
      in
      let finished = ref false in
      while List.length !found < k && not !finished do
        let prev = List.hd !found in
        let prev_nodes = nodes g ~src prev in
        (* spur from each node of the last found path *)
        for i = 0 to Array.length prev - 1 do
          let spur_node = prev_nodes.(i) in
          let root = Array.sub prev 0 i in
          (* block edges that would recreate an already-found path with
             the same root *)
          let blocked_edges = Hashtbl.create 8 in
          List.iter
            (fun p ->
              if Array.length p > i && Array.sub p 0 i = root then
                Hashtbl.replace blocked_edges p.(i) ())
            !found;
          (* block nodes of the root (loopless) *)
          let blocked_nodes = Hashtbl.create 8 in
          for j = 0 to i - 1 do
            Hashtbl.replace blocked_nodes prev_nodes.(j) ()
          done;
          let edge_ok e = not (Hashtbl.mem blocked_edges e) in
          let node_ok v = not (Hashtbl.mem blocked_nodes v) in
          if not (Hashtbl.mem blocked_nodes spur_node) then
            match shortest g ~edge_ok ~node_ok ~src:spur_node ~dst () with
            | None -> ()
            | Some spur -> add_candidate (Array.append root spur)
        done;
        match !candidates with
        | [] -> finished := true
        | (_, best) :: rest ->
            candidates := rest;
            found := best :: !found
      done;
      List.rev !found
