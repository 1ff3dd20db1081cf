(** Mutable directed graph over dense integer node ids.

    All IR graphs (DFGs, the CDFG's control-flow graph) are stored as
    [Digraph.t] plus side tables from node id to payload.  Node ids are
    allocated densely from 0, which lets analyses use plain arrays. *)

type t

val create : unit -> t
(** An empty graph. *)

val add_node : t -> int
(** Allocates and returns the next node id. *)

val node_count : t -> int
(** Number of allocated nodes. *)

val add_edge : t -> src:int -> dst:int -> unit
(** Adds a directed edge.  Duplicate edges are kept (a DFG node can use the
    same value twice, e.g. [x * x]). *)

val succs : t -> int -> int list
(** Successors in insertion order. *)

val preds : t -> int -> int list
(** Predecessors in insertion order. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val nodes : t -> int list
(** All node ids, ascending. *)

exception Cycle of int list
(** Raised by the [_exn] entry points on a cyclic graph; carries the ids of
    the nodes stuck on cycles. *)

val topo_sort : t -> (int list, int list) result
(** Topological order of all nodes, or [Error ids] if the graph has a
    cycle — [ids] are the nodes whose in-degree never drained, i.e. the
    nodes on (or locked behind) the offending cycles.  DFGs must be
    acyclic; the control-flow graph is sorted with {!topo_sort_weak}
    instead. *)

val topo_sort_exn : t -> int list
(** Like {!topo_sort} but raises {!Cycle} on a cyclic graph.  For callers
    that have already validated acyclicity. *)

val topo_sort_weak : t -> int list
(** Topological order that tolerates cycles: back edges (relative to a DFS
    from the roots) are ignored, so loops in a CFG yield the natural
    header-before-body order. *)

val is_acyclic : t -> bool

val reachable_from : t -> int list -> bool array
(** [reachable_from g roots] marks every node reachable from [roots]. *)

val longest_path_from_sources : t -> int array
(** For an acyclic graph, the array of longest-path lengths (in edges) from
    any source node.  Used for ASAP levels.  Raises {!Cycle} on a cyclic
    graph. *)

val longest_path_to_sinks : t -> int array
(** Longest-path lengths to any sink node.  Used for ALAP levels.  Raises
    {!Cycle} on a cyclic graph. *)

val to_dot : ?label:(int -> string) -> t -> string
(** Graphviz rendering for debugging and docs. *)
