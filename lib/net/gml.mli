(** Minimal GML reader for network topologies.

    The Internet Topology Zoo (the paper's topology source) publishes
    graphs as GML.  This module parses the subset of GML those files
    use — nested [key [ ... ]] records with scalar attributes — so
    that, given the real files, the catalog's generated stand-ins can
    be swapped for the authors' exact inputs without touching any other
    code.

    Nodes are re-indexed densely in order of appearance; a
    [LinkSpeed]/[bandwidth]/[capacity] attribute is used as the link
    capacity when present and positive (default 1.0).  One-degree nodes are pruned
    recursively when [prune] is set, matching the paper's §6
    preprocessing. *)

val parse :
  ?name:string -> ?prune:bool -> string -> (Graph.t, string) result
(** Parse GML text.  [Error], never an exception, on malformed input:
    an unterminated string or record, an unbalanced [']'], a dangling
    key, no [graph] record, a node without an id, an edge without
    declared endpoints, or a capacity that is not finite.  The message
    names the fault. *)

val load : ?prune:bool -> string -> (Graph.t, string) result
(** Read and parse a [.gml] file; the graph is named after the file.
    [Error] also when the file cannot be read. *)
