(** Shortest paths and Yen's k-shortest loopless paths.

    A path is the edge-id sequence from source to destination; node
    sequences are derivable via {!nodes}.  Every edge weighs 1.0 (hop
    count), the latency proxy used for tunnel selection. *)

type path = int array
(** Edge ids in order from source to destination. *)

val nodes : Graph.t -> src:int -> path -> int array
(** Node sequence visited by a path starting at [src]
    (length = path length + 1). *)

val k_shortest : Graph.t -> k:int -> src:int -> dst:int -> unit -> path list
(** Yen's algorithm over Dijkstra: up to [k] loopless paths by
    nondecreasing hop count. *)

val overlap : path -> path -> int
(** Number of shared edge ids. *)
