(** TreeSketch baseline (Polyzotis, Garofalakis, Ioannidis, SIGMOD 2004),
    reimplemented from its published description for the paper's comparison
    experiments (Tables 2 and 3, Figure 5).

    A TreeSketch is a partition of the document nodes into same-label
    classes; each class edge (U, V) carries the {e total} number of V-class
    children under U-class nodes, so the average count [total / |U|] is the
    estimated fan-out. Construction starts from the {e count-stable}
    partition (exact for twig counting — built bottom-up by hash-consing
    each node's (label, child-class multiset) signature) and then greedily
    merges the same-label class pair with the least squared count error
    until the synopsis fits the memory budget.

    The two properties the paper exploits are reproduced faithfully:
    - merging is quadratic-ish in the class population, so construction cost
      explodes on structure-rich documents (a work cutoff surfaces the
      paper's "DNF" entries instead of hanging);
    - classes carry no recursion-level information, so on recursive data the
      budgeted sketch collapses distinct nesting depths and the estimates
      degrade — XSEED's advantage in Table 3. *)

type t

type build_stats = {
  initial_classes : int;
  merges : int;
  work : int;  (** pair-evaluation operations performed *)
  completed : bool;  (** false when the work cutoff fired (the paper's DNF) *)
}

val build : ?budget_bytes:int -> ?max_work:int -> Nok.Storage.t -> t * build_stats
(** [budget_bytes] defaults to unlimited (the perfect, count-stable sketch).
    [max_work] (default 50_000_000) bounds construction effort. *)

val class_count : t -> int
val edge_count : t -> int

val size_in_bytes : t -> int
(** 8 bytes per class + 8 per class edge, comparable with
    {!Core.Kernel.size_in_bytes}. *)

val estimate :
  ?card_threshold:float -> ?max_depth:int -> ?max_nodes:int -> t -> Xpath.Ast.t -> float
(** Expand the sketch into an estimated path tree (cards multiply average
    counts; a branch's backward selectivity is [min 1 avg]) and run the
    shared matcher. [max_depth] (default 40) bounds expansion through the
    cycles a budgeted sketch can contain; [card_threshold] defaults to 0.5
    like XSEED's traveler. *)

val expand :
  ?card_threshold:float ->
  ?max_depth:int ->
  ?max_nodes:int ->
  t ->
  node:(label:Xml.Label.t -> card:float -> bsel:float -> children:'a list -> 'a) ->
  'a
(** The estimated path tree {!estimate} matches, built bottom-up with
    [node] (children in ascending class order). {!estimate} builds it
    with {!Core.Matcher.synthetic_node}. *)

val table : t -> Xml.Label.table
