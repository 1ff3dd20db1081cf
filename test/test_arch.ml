(* Tests for the CGRA model, Table I configurations and the ISA. *)

module Cgra = Cgra_arch.Cgra
module Config = Cgra_arch.Config
module Isa = Cgra_arch.Isa
module Op = Cgra_ir.Opcode

let grid = Config.cgra Config.HOM64

let test_table1_totals () =
  Alcotest.(check int) "HOM64" 1024 (Config.total_cm Config.HOM64);
  Alcotest.(check int) "HOM32" 512 (Config.total_cm Config.HOM32);
  Alcotest.(check int) "HET1" 576 (Config.total_cm Config.HET1);
  Alcotest.(check int) "HET2" 512 (Config.total_cm Config.HET2)

let test_het_layout () =
  (* paper tiles are 1-based: tiles 1-4 CM64; 5-8, 13-16 CM32; 9-12 CM16 *)
  Alcotest.(check int) "HET1 tile 1" 64 (Config.cm_of_tile Config.HET1 0);
  Alcotest.(check int) "HET1 tile 5" 32 (Config.cm_of_tile Config.HET1 4);
  Alcotest.(check int) "HET1 tile 9" 16 (Config.cm_of_tile Config.HET1 8);
  Alcotest.(check int) "HET1 tile 13" 32 (Config.cm_of_tile Config.HET1 12);
  Alcotest.(check int) "HET2 tile 13" 16 (Config.cm_of_tile Config.HET2 12)

let test_lsu_tiles () =
  Alcotest.(check (list int)) "first two rows" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (Cgra.lsu_tiles grid);
  Alcotest.(check bool) "load on LSU tile" true (Cgra.can_execute grid 3 Op.Load);
  Alcotest.(check bool) "no store on ALU tile" false
    (Cgra.can_execute grid 12 Op.Store);
  Alcotest.(check bool) "alu anywhere" true (Cgra.can_execute grid 12 Op.Mul)

let test_neighbors_torus () =
  (* tile 0 is a corner: torus wrap gives 4 distinct neighbours on 4x4 *)
  Alcotest.(check int) "four neighbours" 4 (List.length (Cgra.neighbors grid 0));
  Alcotest.(check bool) "wraps to tile 12" true
    (List.mem 12 (Cgra.neighbors grid 0));
  Alcotest.(check bool) "wraps to tile 3" true (List.mem 3 (Cgra.neighbors grid 0))

let test_distance () =
  Alcotest.(check int) "self" 0 (Cgra.distance grid 5 5);
  Alcotest.(check int) "adjacent" 1 (Cgra.distance grid 0 1);
  Alcotest.(check int) "wrap column" 1 (Cgra.distance grid 0 3);
  Alcotest.(check int) "wrap row" 1 (Cgra.distance grid 0 12);
  Alcotest.(check int) "max on 4x4 torus" 4 (Cgra.distance grid 0 10)

let arb_tile_pair =
  QCheck.make QCheck.Gen.(pair (int_bound 15) (int_bound 15))

let prop_route_matches_distance =
  QCheck.Test.make ~name:"route length equals torus distance" ~count:300
    arb_tile_pair (fun (src, dst) ->
      match Cgra.route_opt grid ~src ~dst with
      | Some path -> List.length path = Cgra.distance grid src dst
      | None -> false)

let prop_route_adjacent_hops =
  QCheck.Test.make ~name:"route hops are adjacent and end at dst" ~count:300
    arb_tile_pair (fun (src, dst) ->
      let rec ok prev = function
        | [] -> prev = dst
        | hop :: rest -> Cgra.distance grid prev hop = 1 && ok hop rest
      in
      match Cgra.route_opt grid ~src ~dst with
      | Some path -> ok src path
      | None -> false)

(* Fault-free arrays of every shape up to 6x6 answer with the torus
   formulas, written out here: 1- and 2-wide rings are where BFS over
   deduplicated neighbours could part from the ring-delta distance. *)
let prop_pristine_shapes =
  let shape =
    QCheck.make
      ~print:(fun (rows, cols, lsu_rows) ->
        Printf.sprintf "%dx%d, %d LSU rows" rows cols lsu_rows)
      QCheck.Gen.(triple (int_range 1 6) (int_range 1 6) (int_range 0 6))
  in
  QCheck.Test.make ~name:"pristine arrays of every shape are tori" ~count:500
    shape (fun (rows, cols, lsu_rows) ->
      let c = Cgra.make ~rows ~cols ~lsu_rows ~cm_of_tile:(fun _ -> 8) () in
      let ring size a b =
        let d = abs (a - b) in
        min d (size - d)
      in
      let id r k = ((r + rows) mod rows * cols) + ((k + cols) mod cols) in
      let tiles = List.init (rows * cols) Fun.id in
      List.for_all
        (fun a ->
          let ra = a / cols and ka = a mod cols in
          let wrap =
            List.filter (( <> ) a)
              (List.sort_uniq compare
                 [ id (ra - 1) ka; id (ra + 1) ka; id ra (ka - 1);
                   id ra (ka + 1) ])
          in
          Cgra.neighbors c a = wrap
          && List.for_all
               (fun b ->
                 let d = ring rows ra (b / cols) + ring cols ka (b mod cols) in
                 let path = Cgra.route_geometric c ~src:a ~dst:b in
                 let rec adjacent prev = function
                   | [] -> prev = b
                   | hop :: rest ->
                     List.mem hop (Cgra.neighbors c prev) && adjacent hop rest
                 in
                 Cgra.distance c a b = d
                 && List.length path = d
                 && adjacent a path
                 && Cgra.path_ok c ~src:a path
                 && Cgra.route_opt c ~src:a ~dst:b = Some path)
               tiles)
        tiles)

let arb_instr =
  let open QCheck.Gen in
  let src =
    oneof
      [ map (fun i -> Isa.Rf i) (int_bound 31);
        map (fun i -> Isa.Crf i) (int_bound 31);
        map2 (fun t i -> Isa.Nbr (t, i)) (int_bound 15) (int_bound 31) ]
  in
  let opcode = oneofl Cgra_ir.Opcode.all in
  let iop =
    opcode >>= fun op ->
    list_size (int_range 0 3) src >>= fun srcs ->
    opt (int_bound 31) >>= fun dst ->
    bool >|= fun set_cond -> Isa.Iop { opcode = op; srcs; dst; set_cond }
  in
  let imov =
    map3
      (fun t s d -> Isa.Imov { from_tile = t; from_slot = s; dst = d })
      (int_bound 15) (int_bound 31) (int_bound 31)
  in
  let icopy =
    map3
      (fun s d c -> Isa.Icopy { src = s; dst = d; set_cond = c })
      src (int_bound 31) bool
  in
  let ipnop = map (fun n -> Isa.Ipnop (n + 1)) (int_bound 1000) in
  QCheck.make (oneof [ iop; imov; icopy; ipnop ])

let prop_encode_decode =
  QCheck.Test.make ~name:"ISA encode/decode roundtrip" ~count:500 arb_instr
    (fun instr -> Isa.decode (Isa.encode instr) = Ok instr)

(* Decoding is total: any 64-bit pattern — valid encoding, fault-
   flipped word or pure noise — yields [Ok] or a typed [Error], never
   an exception.  This is what lets the fault campaigns classify
   corrupt context words as crashes instead of dying on them. *)
let prop_decode_never_raises =
  let arb_word =
    QCheck.make
      ~print:(fun w -> Printf.sprintf "0x%Lx" w)
      QCheck.Gen.(
        map
          (fun (hi, lo) ->
            Int64.logor
              (Int64.shift_left (Int64.of_int hi) 32)
              (Int64.of_int lo))
          (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF)))
  in
  QCheck.Test.make ~name:"ISA decode never raises" ~count:2000 arb_word
    (fun w ->
      match Isa.decode w with Ok _ | Error _ -> true)

let test_isa_durations () =
  Alcotest.(check int) "pnop duration" 9 (Isa.duration (Isa.Ipnop 9));
  Alcotest.(check int) "mov duration" 1
    (Isa.duration (Isa.Imov { from_tile = 0; from_slot = 1; dst = 2 }));
  Alcotest.(check bool) "is_pnop" true (Isa.is_pnop (Isa.Ipnop 1))

let test_isa_strings () =
  Alcotest.(check string) "op" "add r3, r1, c0"
    (Isa.to_string
       (Isa.Iop { opcode = Op.Add; srcs = [ Isa.Rf 1; Isa.Crf 0 ]; dst = Some 3; set_cond = false }));
  Alcotest.(check string) "mov" "mov r2, T05.r7"
    (Isa.to_string (Isa.Imov { from_tile = 5; from_slot = 7; dst = 2 }))

let test_decode_bad_pnop () =
  match Isa.decode (Isa.encode (Isa.Ipnop 1)) with
  | Ok (Isa.Ipnop 1) ->
    (* corrupt the length field to zero *)
    let w = Int64.logand (Isa.encode (Isa.Ipnop 1)) 0xC000000000000000L in
    (match Isa.decode w with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "zero-length pnop accepted")
  | _ -> Alcotest.fail "pnop roundtrip broken"

let test_custom_grid () =
  let c = Cgra.make ~rows:3 ~cols:5 ~lsu_rows:1 ~cm_of_tile:(fun _ -> 8) () in
  Alcotest.(check int) "15 tiles" 15 (Cgra.tile_count c);
  Alcotest.(check int) "5 LSU tiles" 5 (List.length (Cgra.lsu_tiles c));
  Alcotest.(check int) "torus distance" 1 (Cgra.distance c 0 10)

(* ---- degraded arrays (permanent faults) ----------------------------- *)

let test_degrade_semantics () =
  let c =
    Cgra.degrade grid
      [ Cgra.Dead_tile { tile = 5 };
        Cgra.Cm_rows_stuck { tile = 3; rows = 16 };
        Cgra.No_lsu { tile = 1 };
        Cgra.Dead_link { tile = 2; dir = Cgra.East } ]
  in
  Alcotest.(check bool) "not pristine" false (Cgra.pristine c);
  Alcotest.(check bool) "tile 5 dead" false (Cgra.alive c 5);
  Alcotest.(check int) "dead tile CM reads 0" 0 c.Cgra.tiles.(5).Cgra.cm_words;
  Alcotest.(check bool) "dead tile executes nothing" false
    (Cgra.can_execute c 5 Op.Mul);
  Alcotest.(check (list int)) "dead tile has no neighbours" []
    (Cgra.neighbors c 5);
  Alcotest.(check bool) "neighbours exclude the dead tile" false
    (List.mem 5 (Cgra.neighbors c 1));
  Alcotest.(check int) "stuck rows shrink the CM" 48 c.Cgra.tiles.(3).Cgra.cm_words;
  Alcotest.(check int) "pristine capacity still visible" 64 (Cgra.base_cm c 3);
  Alcotest.(check bool) "no_lsu keeps the ALU" true (Cgra.can_execute c 1 Op.Add);
  Alcotest.(check bool) "no_lsu breaks loads" false (Cgra.can_execute c 1 Op.Load);
  (* east link of tile 2 reaches tile 3; severing is symmetric *)
  Alcotest.(check bool) "link severed 2->3" true (Cgra.link_severed c 2 3);
  Alcotest.(check bool) "link severed 3->2" true (Cgra.link_severed c 3 2);
  Alcotest.(check bool) "severed neighbour dropped" false
    (List.mem 3 (Cgra.neighbors c 2));
  Alcotest.(check int) "severed pair detours" 3 (Cgra.distance c 2 3)

let test_degrade_pristine_noop () =
  Alcotest.(check bool) "degrade [] is physically the same array" true
    (Cgra.degrade grid [] == grid)

let test_degrade_accumulate_clamp () =
  let c =
    Cgra.degrade grid
      [ Cgra.Cm_rows_stuck { tile = 0; rows = 40 };
        Cgra.Cm_rows_stuck { tile = 0; rows = 60 } ]
  in
  Alcotest.(check int) "distinct stuck-row faults accumulate, clamped" 0
    c.Cgra.tiles.(0).Cgra.cm_words;
  Alcotest.(check bool) "tile still alive" true (Cgra.alive c 0);
  (* applying more faults on an already-degraded array composes *)
  let c2 = Cgra.degrade c [ Cgra.Dead_tile { tile = 9 } ] in
  Alcotest.(check int) "earlier faults preserved" 0 c2.Cgra.tiles.(0).Cgra.cm_words;
  Alcotest.(check bool) "new fault applied" false (Cgra.alive c2 9)

let test_degrade_invalid () =
  Alcotest.check_raises "out-of-range tile"
    (Invalid_argument "Cgra.degrade: dead_tile names tile 99 outside 0..15")
    (fun () -> ignore (Cgra.degrade grid [ Cgra.Dead_tile { tile = 99 } ]))

let test_unroutable_partition () =
  (* sever all four links of tile 10: it is alive but unreachable *)
  let c =
    Cgra.degrade grid
      [ Cgra.Dead_link { tile = 10; dir = Cgra.North };
        Cgra.Dead_link { tile = 10; dir = Cgra.South };
        Cgra.Dead_link { tile = 10; dir = Cgra.West };
        Cgra.Dead_link { tile = 10; dir = Cgra.East } ]
  in
  Alcotest.(check bool) "still alive" true (Cgra.alive c 10);
  Alcotest.(check (list int)) "no usable neighbours" [] (Cgra.neighbors c 10);
  Alcotest.(check int) "unreachable distance" (Cgra.unreachable c)
    (Cgra.distance c 10 0);
  Alcotest.(check bool) "route_opt none" true (Cgra.route_opt c ~src:0 ~dst:10 = None);
  Alcotest.(check bool) "self route still empty" true
    (Cgra.route_opt c ~src:10 ~dst:10 = Some [])

let test_fault_map_roundtrip () =
  let module Fm = Cgra_arch.Fault_map in
  let fs =
    [ Cgra.Dead_tile { tile = 5 };
      Cgra.Cm_rows_stuck { tile = 3; rows = 8 };
      Cgra.Dead_link { tile = 2; dir = Cgra.East };
      Cgra.No_lsu { tile = 1 } ]
  in
  (match Fm.of_string (Fm.to_string fs) with
   | Ok fs' -> Alcotest.(check bool) "printer/parser round-trip" true (fs = fs')
   | Error e -> Alcotest.fail e);
  (match Fm.of_string "; comment\n  (dead_tile 7) ; trailing\n\n(DEAD_LINK 0 N)\n" with
   | Ok fs' ->
     Alcotest.(check bool) "comments, case and blanks accepted" true
       (fs' = [ Cgra.Dead_tile { tile = 7 };
                Cgra.Dead_link { tile = 0; dir = Cgra.North } ])
   | Error e -> Alcotest.fail e);
  match Fm.of_string "(dead_tile 1)\n(bogus 2)" with
  | Ok _ -> Alcotest.fail "bogus fault accepted"
  | Error e ->
    Alcotest.(check bool) "error names the line" true
      (String.length e >= 17 && String.sub e 0 17 = "fault map line 2:")

let gen_fault =
  let open QCheck.Gen in
  int_bound 15 >>= fun tile ->
  int_bound 3 >>= function
  | 0 -> return (Cgra.Dead_tile { tile })
  | 1 -> int_range 1 64 >>= fun rows -> return (Cgra.Cm_rows_stuck { tile; rows })
  | 2 ->
    oneofl [ Cgra.North; Cgra.South; Cgra.West; Cgra.East ] >>= fun dir ->
    return (Cgra.Dead_link { tile; dir })
  | _ -> return (Cgra.No_lsu { tile })

let arb_degraded_case =
  QCheck.make
    QCheck.Gen.(
      triple (list_size (int_range 0 5) gen_fault) (int_bound 15) (int_bound 15))

let arb_fault_list =
  QCheck.make QCheck.Gen.(list_size (int_range 0 6) gen_fault)

let prop_degraded_route_matches_distance =
  QCheck.Test.make
    ~name:"degraded: route length = distance, no dead tile/link traversed"
    ~count:500 arb_degraded_case (fun (fs, src, dst) ->
      let c = Cgra.degrade grid fs in
      match Cgra.route_opt c ~src ~dst with
      | None -> Cgra.distance c src dst = Cgra.unreachable c
      | Some path ->
        if src = dst then path = []
        else
          List.length path = Cgra.distance c src dst
          && Cgra.path_ok c ~src path
          && (let rec ok prev = function
                | [] -> prev = dst
                | hop :: rest -> Cgra.distance c prev hop = 1 && ok hop rest
              in
              ok src path))

let prop_degrade_idempotent =
  QCheck.Test.make ~name:"degrade is idempotent" ~count:200 arb_fault_list
    (fun fs ->
      let c = Cgra.degrade grid fs in
      Cgra.degrade c fs = c)

let prop_degrade_order_insensitive =
  QCheck.Test.make ~name:"degrade is order-insensitive" ~count:200
    arb_fault_list (fun fs ->
      Cgra.degrade grid (List.rev fs) = Cgra.degrade grid fs)

let suite =
  [ ( "arch",
      [ Alcotest.test_case "Table I totals" `Quick test_table1_totals;
        Alcotest.test_case "HET layouts" `Quick test_het_layout;
        Alcotest.test_case "LSU placement" `Quick test_lsu_tiles;
        Alcotest.test_case "torus neighbours" `Quick test_neighbors_torus;
        Alcotest.test_case "torus distance" `Quick test_distance;
        QCheck_alcotest.to_alcotest prop_route_matches_distance;
        QCheck_alcotest.to_alcotest prop_route_adjacent_hops;
        QCheck_alcotest.to_alcotest prop_pristine_shapes;
        QCheck_alcotest.to_alcotest prop_encode_decode;
        QCheck_alcotest.to_alcotest prop_decode_never_raises;
        Alcotest.test_case "ISA durations" `Quick test_isa_durations;
        Alcotest.test_case "ISA rendering" `Quick test_isa_strings;
        Alcotest.test_case "decode rejects bad pnop" `Quick test_decode_bad_pnop;
        Alcotest.test_case "custom grid" `Quick test_custom_grid;
        Alcotest.test_case "degrade semantics" `Quick test_degrade_semantics;
        Alcotest.test_case "degrade [] is a no-op" `Quick
          test_degrade_pristine_noop;
        Alcotest.test_case "stuck rows accumulate and clamp" `Quick
          test_degrade_accumulate_clamp;
        Alcotest.test_case "degrade rejects bad tile ids" `Quick
          test_degrade_invalid;
        Alcotest.test_case "partitioned tile is unroutable" `Quick
          test_unroutable_partition;
        Alcotest.test_case "fault-map file format round-trips" `Quick
          test_fault_map_roundtrip;
        QCheck_alcotest.to_alcotest prop_degraded_route_matches_distance;
        QCheck_alcotest.to_alcotest prop_degrade_idempotent;
        QCheck_alcotest.to_alcotest prop_degrade_order_insensitive ] ) ]
