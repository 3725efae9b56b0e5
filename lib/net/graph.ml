type edge = { id : int; u : int; v : int; capacity : float; group : int }

type t = {
  name : string;
  n : int;
  edges : edge array;
  adj : (int * int) list array;
}

let create ~name ~n links =
  let edges =
    Array.mapi
      (fun id (u, v, capacity) ->
        if u = v then invalid_arg "Graph.create: self-loop";
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Graph.create: endpoint out of range";
        if capacity <= 0. then invalid_arg "Graph.create: capacity <= 0";
        { id; u; v; capacity; group = id })
      links
  in
  let adj = Array.make n [] in
  Array.iter
    (fun e ->
      adj.(e.u) <- (e.id, e.v) :: adj.(e.u);
      adj.(e.v) <- (e.id, e.u) :: adj.(e.v))
    edges;
  Array.iteri (fun i l -> adj.(i) <- List.rev l) adj;
  { name; n; edges; adj }

let nedges g = Array.length g.edges

let other_endpoint e x =
  if x = e.u then e.v
  else if x = e.v then e.u
  else invalid_arg "Graph.other_endpoint"

let bfs g alive start =
  let seen = Array.make g.n false in
  seen.(start) <- true;
  let q = Queue.create () in
  Queue.add start q;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    List.iter
      (fun (eid, y) ->
        if alive eid && not seen.(y) then begin
          seen.(y) <- true;
          Queue.add y q
        end)
      g.adj.(x)
  done;
  seen

let connected g ?(alive = fun _ -> true) u v =
  if u = v then true else (bfs g alive u).(v)

let split_links g =
  let links = Array.length g.edges in
  let edges =
    Array.init (2 * links) (fun id ->
        let parent = g.edges.(id / 2) in
        {
          id;
          u = parent.u;
          v = parent.v;
          capacity = parent.capacity /. 2.;
          group = parent.id;
        })
  in
  let adj = Array.make g.n [] in
  Array.iter
    (fun e ->
      adj.(e.u) <- (e.id, e.v) :: adj.(e.u);
      adj.(e.v) <- (e.id, e.u) :: adj.(e.v))
    edges;
  Array.iteri (fun i l -> adj.(i) <- List.rev l) adj;
  { name = g.name ^ "-rich"; n = g.n; edges; adj }

let pairs g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for v = g.n - 1 downto u + 1 do
      acc := (u, v) :: !acc
    done
  done;
  Array.of_list !acc
