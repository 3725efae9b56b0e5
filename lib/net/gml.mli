(** Minimal GML reader for network topologies.

    The Internet Topology Zoo (the paper's topology source) publishes
    graphs as GML.  This module parses the subset of GML those files
    use — nested [key [ ... ]] records with scalar attributes — so
    that, given the real files, the catalog's generated stand-ins can
    be swapped for the authors' exact inputs without touching any other
    code.

    Nodes are re-indexed densely in order of appearance.  A link's
    capacity is its [LinkSpeedRaw] attribute (bits/s, Topology Zoo's
    unit-free speed) when any edge of the file carries one; otherwise
    its [LinkSpeed]/[bandwidth]/[capacity] attribute, else 1.0.
    One-degree nodes are pruned recursively when [prune] is set
    (default), matching the paper's §6 preprocessing. *)

(* the unpruned graph is what test_net.ml "parse without pruning" and
   "malformed input" check the reader's own output on *)
val parse :
  ?name:string -> ?prune:bool -> string -> (Graph.t, string) result
  [@@lint.allow "u2-single-value-knob"]
(** Parse GML text.  [Error], never an exception, on malformed input:
    an unterminated string or record, an unbalanced [']'], a dangling
    key, no [graph] record, a node without an id, an edge without
    declared endpoints, a capacity that is not finite or not
    positive, or an edge without [LinkSpeedRaw] in a file where
    another edge has one.  The message names the fault. *)

val load : string -> (Graph.t, string) result
(** Read and parse a [.gml] file, pruned; the graph is named after the
    file.  [Error] also when the file cannot be read. *)
