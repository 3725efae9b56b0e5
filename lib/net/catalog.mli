(** The topology catalog: the 20 evaluation networks of Table 2 (each
    generated deterministically at its exact published size, see
    {!Gen}) and the paper's illustrative toy topologies. *)

val table2 : (string * int * int) list
(** (name, nodes, edges) exactly as in Table 2 of the paper. *)

val by_name : string -> Graph.t
(** Case-insensitive lookup in {!table2}, plus ["continental"]: a
    deterministic 1100-node / 1800-edge synthetic continental WAN, an
    order of magnitude beyond Table 2, generated with the same seeded
    scheme and sized to exercise the sparse LU simplex at scale.
    Raises [Not_found]. *)

val srlgs : Graph.t -> int array array
(** Shared-risk link-group annotation for a catalog topology, derived
    deterministically from the topology name (seeded, no global
    state): a sampled subset of sites bundles 2-3 of its incident
    links into one fate-sharing conduit group; every remaining edge is
    its own singleton group.  Every edge appears in exactly one
    group. *)

val triangle : unit -> Graph.t
(** Fig. 1: nodes A=0, B=1, C=2, three unit-capacity links. *)
