type traversal = Forward | Weighted
type backend = Beam | Exact | Portfolio

type t = {
  traversal : traversal;
  acmap : bool;
  ecmap : bool;
  cab : bool;
  beam_width : int;
  expand_per_state : int;
  prune_slack : float;
  keep_prob : float;
  recompute_budget : int;
  home_reserve : int;
  move_weight : int;
  energy_bias_nodes : int;
  retries : int;
  seed : int;
  expand_jobs : int;
  degrade : bool;
  max_attempts : int;
  faults : Cgra_arch.Cgra.fault list;
  backend : backend;
  protection : Cgra_arch.Protection.profile;
}

let default =
  {
    traversal = Forward;
    acmap = false;
    ecmap = false;
    cab = false;
    beam_width = 24;
    expand_per_state = 4;
    prune_slack = 0.15;
    keep_prob = 0.25;
    recompute_budget = 32;
    home_reserve = 0;
    move_weight = 1;
    energy_bias_nodes = 64;
    retries = 0;
    seed = 42;
    expand_jobs = 1;
    degrade = false;
    max_attempts = 6;
    faults = [];
    backend = Beam;
    protection = Cgra_arch.Protection.none;
  }

let basic = default

(* The aware steps pay compilation time for design-space exploration
   (Fig 9: ~1.3x / ~1.6x / ~1.8x the basic flow), so they also widen the
   search. *)
(* ACMAP keeps a narrow population: the approximate filter lets
   memory-violating but cheap partial mappings crowd out compliant ones
   (the paper's "abundance of invalid mappings" for this step). *)
let with_acmap =
  { default with traversal = Weighted; acmap = true; beam_width = 12;
    expand_per_state = 4; retries = 1; move_weight = 128 }

(* The exact flows additionally reserve a couple of context words on
   symbol-home tiles for the mandatory live-out writes of later blocks. *)

let with_acmap_ecmap =
  { with_acmap with ecmap = true; beam_width = 40; expand_per_state = 5;
    home_reserve = 2 }

let context_aware =
  { with_acmap_ecmap with cab = true; beam_width = 48; expand_per_state = 6;
    retries = 2 }

let steps_of t =
  let base =
    match t.traversal with
    | Forward -> "basic"
    | Weighted -> "basic+WT"
  in
  let add cond label acc = if cond then acc ^ "+" ^ label else acc in
  base |> add t.acmap "ACMAP" |> add t.ecmap "ECMAP" |> add t.cab "CAB"
  |> add (t.backend = Exact) "SAT"
  |> add (t.backend = Portfolio) "PORT"

(* ---- presets ---------------------------------------------------------- *)

type preset = Basic | With_acmap | With_ecmap | Full

(* (preset, command-line name, report label, configuration).  The labels
   key the harness's per-cell RNG splits, so they must never change. *)
let preset_table =
  [ (Basic, "basic", "basic", basic);
    (With_acmap, "acmap", "basic+ACMAP", with_acmap);
    (With_ecmap, "ecmap", "basic+ACMAP+ECMAP", with_acmap_ecmap);
    (Full, "full", "basic+ACMAP+ECMAP+CAB", context_aware) ]

let presets = List.map (fun (p, _, _, _) -> p) preset_table
let preset_names = List.map (fun (_, n, _, _) -> n) preset_table
let row p = List.find (fun (q, _, _, _) -> q = p) preset_table
let preset_label p = let _, _, label, _ = row p in label
let of_preset p = let _, _, _, config = row p in config

let preset_of_string = function
  | "cab" -> Some Full
  | s ->
    List.find_map (fun (p, n, _, _) -> if n = s then Some p else None) preset_table

(* ---- spellings ---------------------------------------------------------- *)

let backends = [ Beam; Exact; Portfolio ]

let backend_to_string = function
  | Beam -> "beam"
  | Exact -> "exact"
  | Portfolio -> "portfolio"

let backend_of_string s =
  List.find_opt (fun b -> backend_to_string b = s) backends

(* ---- the knob table ------------------------------------------------------ *)

type knob = {
  name : string;
  print : t -> string;
  parse : t -> string -> (t, string) result;
}

(* How one knob's value is written, read back, and described in errors. *)
type 'a spelling = {
  write : 'a -> string;
  read : string -> 'a option;
  expected : string;
}

let int_s =
  { write = string_of_int; read = int_of_string_opt; expected = "an integer" }

(* Round-trip-exact, so a float knob survives the wire unchanged. *)
let float_s =
  { write = Printf.sprintf "%.17g"; read = float_of_string_opt; expected = "a float" }

let bool_s =
  { write = string_of_bool; read = bool_of_string_opt; expected = "true|false" }

let traversal_s =
  { write = (function Forward -> "forward" | Weighted -> "weighted");
    read =
      (function
        | "forward" -> Some Forward | "weighted" -> Some Weighted | _ -> None);
    expected = "forward|weighted" }

let backend_s =
  { write = backend_to_string; read = backend_of_string;
    expected = String.concat "|" (List.map backend_to_string backends) }

let protection_s =
  { write = Cgra_arch.Protection.profile_to_string;
    read = Cgra_arch.Protection.profile_of_string;
    expected = Cgra_arch.Protection.valid_values }

let knob name s get set =
  { name;
    print = (fun t -> s.write (get t));
    parse =
      (fun t v ->
        match s.read v with
        | Some x -> Ok (set t x)
        | None ->
          Error (Printf.sprintf "knob %s: %S (expected %s)" name v s.expected)) }

(* Every semantic field, i.e. every field that can change an artifact's
   bytes.  The others stay out: [expand_jobs] (RNG-free expansion, so
   bytes-neutral) and [faults] (keyed on their own). *)
let knobs =
  [ knob "acmap" bool_s (fun t -> t.acmap) (fun t v -> { t with acmap = v });
    knob "backend" backend_s (fun t -> t.backend)
      (fun t v -> { t with backend = v });
    knob "beam_width" int_s (fun t -> t.beam_width)
      (fun t v -> { t with beam_width = v });
    knob "cab" bool_s (fun t -> t.cab) (fun t v -> { t with cab = v });
    knob "degrade" bool_s (fun t -> t.degrade) (fun t v -> { t with degrade = v });
    knob "ecmap" bool_s (fun t -> t.ecmap) (fun t v -> { t with ecmap = v });
    knob "energy_bias_nodes" int_s (fun t -> t.energy_bias_nodes)
      (fun t v -> { t with energy_bias_nodes = v });
    knob "expand_per_state" int_s (fun t -> t.expand_per_state)
      (fun t v -> { t with expand_per_state = v });
    knob "home_reserve" int_s (fun t -> t.home_reserve)
      (fun t v -> { t with home_reserve = v });
    knob "keep_prob" float_s (fun t -> t.keep_prob)
      (fun t v -> { t with keep_prob = v });
    knob "max_attempts" int_s (fun t -> t.max_attempts)
      (fun t v -> { t with max_attempts = v });
    knob "move_weight" int_s (fun t -> t.move_weight)
      (fun t v -> { t with move_weight = v });
    knob "protection" protection_s (fun t -> t.protection)
      (fun t v -> { t with protection = v });
    knob "prune_slack" float_s (fun t -> t.prune_slack)
      (fun t v -> { t with prune_slack = v });
    knob "recompute_budget" int_s (fun t -> t.recompute_budget)
      (fun t v -> { t with recompute_budget = v });
    knob "retries" int_s (fun t -> t.retries) (fun t v -> { t with retries = v });
    knob "seed" int_s (fun t -> t.seed) (fun t v -> { t with seed = v });
    knob "traversal" traversal_s (fun t -> t.traversal)
      (fun t v -> { t with traversal = v }) ]

let to_knobs t = List.map (fun k -> (k.name, k.print t)) knobs

let of_knobs pairs =
  List.fold_left
    (fun acc (name, v) ->
      Result.bind acc (fun t ->
          match List.find_opt (fun k -> k.name = name) knobs with
          | Some k -> k.parse t v
          | None -> Error (Printf.sprintf "unknown flow knob %S" name)))
    (Ok default) pairs
