(** Plain-text rendering of tables and bar charts.

    The experiment harness prints paper-style artifacts (Table II rows,
    Fig 6-8 latency series) on stdout; this module owns the layout so every
    report looks the same. *)

val render : header:string list -> rows:string list list -> string
(** [render ~header ~rows] lays the cells out in aligned columns with a
    separator line under the header.  Rows shorter than the header are
    padded with empty cells. *)

val render_aligned :
  header:string list ->
  align:[ `L | `R ] list ->
  rows:string list list ->
  string
(** {!render} with per-column alignment; columns beyond the length of
    [align] stay left-aligned, so [~align:[]] is exactly {!render} —
    existing artifacts keep their historical layout. *)

val bar_chart : title:string -> (string * float) list -> string
(** [bar_chart ~title series] renders one horizontal ASCII bar per labelled
    value, scaled so the largest value spans 50 columns.
    Negative values are clamped to zero; a zero-valued entry renders as an
    explicit [(none)] marker, matching the paper's "no mapping found"
    bars. *)

val grouped_chart :
  title:string ->
  group_labels:string list ->
  (string * float list) list ->
  string
(** [grouped_chart ~title ~group_labels rows] renders, for each row
    [(label, values)], one bar per value tagged with the corresponding
    group label, scaled so the largest value spans 40 columns — the shape
    of the paper's per-kernel, per-configuration figures. *)

val float_cell : float -> string
(** Compact fixed-point formatting used across reports ("1.43", "0.007"). *)
