(** Undirected capacitated multigraph.

    WAN sites are integer nodes [0 .. n-1]; links are undirected edges
    with a capacity shared by both directions (the paper's flows are
    over unordered site pairs, N(N-1)/2 of them).  Multi-edges are
    allowed: the "richly connected" topologies of §6.2 split every link
    into two independently-failing sub-links. *)

type edge = private {
  id : int;
  u : int;
  v : int;
  capacity : float;
  group : int;
      (** physical-link group; sub-links produced by {!val:split_links}
          share the group of their parent link, otherwise [group = id] *)
}

type t = private {
  name : string;
  n : int;
  edges : edge array;
  adj : (int * int) list array;  (** node -> [(edge id, neighbor)] *)
}

val create : name:string -> n:int -> (int * int * float) array -> t
(** [create ~name ~n links] builds a graph from [(u, v, capacity)]
    triples.  Raises [Invalid_argument] on self-loops or out-of-range
    endpoints. *)

val nedges : t -> int
val other_endpoint : edge -> int -> int

val connected : t -> ?alive:(int -> bool) -> int -> int -> bool
(** [connected g ~alive u v]: is there a path from [u] to [v] using only
    edges for which [alive id] holds (default: all alive)? *)

val split_links : t -> t
(** The richly-connected transform of §6.2: each link becomes two
    parallel sub-links of half capacity that fail independently but
    belong to the same [group]. *)

val pairs : t -> (int * int) array
(** All unordered node pairs (u < v), lexicographic. *)
