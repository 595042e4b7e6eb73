(* Schema validator for the bench and CLI artifacts:

     validate_bench.exe KIND FILE
     KIND = trace | perf | daemon | shadowing | lifetime | parallel

   [trace] checks a JSON-lines trace against the contract of
   docs/OBSERVABILITY.md (Trace_check).  Every other kind is one JSON
   document in the envelope bench/main.ml writes —
   {"schema": S, ["unit": U,] "note": ..., [header fields,]
   "results": [row, ...]} — checked against the kind's declarative
   column spec, then against its named semantic pins.  Exits 0 when the
   file is valid, 1 naming the first violation (row and column), and 2
   on a usage error or an unreadable file. *)

module J = Obs.Jsonl

exception Invalid of string

let fail fmt = Fmt.kstr (fun msg -> raise (Invalid msg)) fmt

(* ---------- column combinators ---------- *)

(* A column is a leaf test with the phrase naming what the value must
   be, or a nested object with its own columns. *)
type check = Leaf of string * (J.t option -> bool) | Obj of spec
and spec = (string * check) list

let num = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (Stdlib.float_of_int i)
  | _ -> None

let number_where what p =
  Leaf (what, fun v -> match num v with Some f -> p f | None -> false)

let int_where what p = Leaf (what, function Some (J.Int i) -> p i | _ -> false)
let string = Leaf ("a string", function Some (J.Str _) -> true | _ -> false)
let boolean = Leaf ("a boolean", function Some (J.Bool _) -> true | _ -> false)

let one_of names =
  Leaf
    ( "one of " ^ String.concat ", " (List.map (Fmt.str "%S") names),
      function Some (J.Str s) -> List.mem s names | _ -> false )

let pos_int = int_where "a positive integer" (fun i -> i > 0)
let nat = int_where "an integer >= 0" (fun i -> i >= 0)
let nonneg = number_where "a number >= 0" (fun f -> f >= 0.)
let positive = number_where "a positive number" (fun f -> f > 0.)

let finite_nonneg =
  number_where "a finite number >= 0" (fun f -> Float.is_finite f && f >= 0.)

let within lo hi =
  number_where (Fmt.str "a number in [%g, %g]" lo hi) (fun f ->
      lo <= f && f <= hi)

let or_null = function
  | Leaf (what, ok) ->
      Leaf (what ^ " or null", function Some J.Null -> true | v -> ok v)
  | Obj _ -> invalid_arg "or_null: object column"

let number_or_null = or_null (number_where "a number" (fun _ -> true))
let int_or_null = or_null (int_where "an integer" (fun _ -> true))

let rec check_spec ctx ~prefix spec v =
  List.iter
    (fun (name, check) ->
      let field = J.member name v in
      match (check, field) with
      | Leaf (what, ok), _ ->
          if not (ok field) then
            fail "%s: %S must be %s" ctx (prefix ^ name) what
      | Obj sub, Some (J.Obj _ as o) ->
          check_spec ctx ~prefix:(prefix ^ name ^ ".") sub o
      | Obj _, _ -> fail "%s: %S must be an object" ctx (prefix ^ name))
    spec

(* Pins read columns the spec has already accepted. *)
let int_at row k =
  match J.member k row with Some (J.Int i) -> i | _ -> invalid_arg k

let num_at row k =
  match num (J.member k row) with Some f -> f | None -> invalid_arg k

let str_at row k =
  match J.member k row with Some (J.Str s) -> s | _ -> invalid_arg k

(* ---------- artifact kinds ---------- *)

type kind = {
  schema : int;
  unit : string option;
  header : spec;  (* envelope fields beside schema, unit and note *)
  label : string list;  (* columns that name a row in messages *)
  columns : spec;
  row_pins : (J.t -> unit) list;
  table_pins : (J.t list -> unit) list;
}

let kind ~schema ?unit ?(header = []) ~label ?(row_pins = [])
    ?(table_pins = []) columns =
  { schema; unit; header; label; columns; row_pins; table_pins }

let perf =
  kind ~schema:2 ~unit:"seconds" ~label:[ "bench" ]
    [
      ("bench", string);
      ("n", pos_int);
      ("grid_s", nonneg);
      ("brute_s", number_or_null);
      ("speedup", number_or_null);
      ("peak_rss_kb", int_or_null);
      ("allocations_mb", number_or_null);
    ]

let fulls_within_commits row =
  let fulls = int_at row "full_recomputes" and commits = int_at row "commits" in
  if fulls > commits then
    fail "full_recomputes %d exceeds commits %d" fulls commits

let daemon =
  kind ~schema:2 ~label:[ "n" ] ~row_pins:[ fulls_within_commits ]
    [
      ("bench", string);
      ("n", pos_int);
      ("events", nat);
      ("regrown", nat);
      ("commits", nat);
      ("full_recomputes", nat);
      ("incremental_fraction", within 0. 1.);
      ("peak_rss_kb", int_or_null);
      ("allocations_mb", number_or_null);
      ("events_per_s", number_or_null);
      ("wall_s", number_or_null);
      ("topology_digest", string);
      ( "grid",
        Obj [ ("drifted", nat); ("overflow", nat); ("compactions", nat) ] );
    ]

let counts_within_trials row =
  let trials = int_at row "trials" in
  List.iter
    (fun k ->
      let v = int_at row k in
      if v > trials then fail "%S = %d exceeds trials = %d" k v trials)
    [ "ref_connected"; "preserved" ]

let frac_is_preserved_over_trials row =
  let frac = num_at row "preserved_frac" in
  let expected =
    Stdlib.float_of_int (int_at row "preserved")
    /. Stdlib.float_of_int (int_at row "trials")
  in
  if Float.abs (frac -. expected) >= 1e-9 then
    fail "preserved_frac %g differs from preserved/trials = %g" frac expected

(* The paper's own guarantee: in the pure disc model (sigma = 0) every
   alpha <= 5pi/6 preserves connectivity, so a miss there is a harness
   bug, not an empirical finding. *)
let five_pi_six_guarantee row =
  let preserved = int_at row "preserved" and trials = int_at row "trials" in
  if
    num_at row "sigma_db" = 0.
    && num_at row "alpha" <= (5. *. Float.pi /. 6.) +. 1e-12
    && preserved <> trials
  then
    fail
      "sigma = 0 with alpha <= 5pi/6 must preserve connectivity in every \
       trial (got %d/%d) — the paper's own guarantee"
      preserved trials

let shadowing =
  kind ~schema:1 ~label:[ "sigma_db"; "alpha_label" ]
    ~row_pins:
      [ counts_within_trials; frac_is_preserved_over_trials;
        five_pi_six_guarantee ]
    [
      ("bench", string);
      ("sigma_db", nonneg);
      ( "alpha",
        number_where "a number in (0, 2pi]" (fun a ->
            a > 0. && a <= 2. *. Float.pi) );
      ("alpha_label", string);
      ("n", pos_int);
      ("side", positive);
      ("target_degree", positive);
      ("trials", pos_int);
      ("ref_connected", nat);
      ("preserved", nat);
      ("preserved_frac", within 0. 1.);
      ("avg_degree", nonneg);
    ]

let rotation_matches_mode row =
  match (str_at row "mode", int_at row "rotation_period") with
  | "passive", r when r <> 0 ->
      fail "passive rows must have rotation_period = 0"
  | "scheduled", 0 -> fail "scheduled rows must have rotation_period >= 1"
  | _ -> ()

(* cover sets only exist when the scheduler actually elects *)
let cover_sets_match_mode row =
  match (str_at row "mode", num_at row "cover_sets") with
  | "passive", c when c <> 0. ->
      fail "passive rows must report cover_sets = 0"
  | "scheduled", c when c <= 0. ->
      fail "scheduled rows must report cover_sets > 0"
  | _ -> ()

let cell row = (str_at row "family", str_at row "mode")
let other_mode = function "passive" -> "scheduled" | _ -> "passive"

let unique_cells rows =
  ignore
    (List.fold_left
       (fun seen row ->
         let family, mode = cell row in
         if List.mem (family, mode) seen then
           fail "(%s, %s): duplicate (family, mode) cell" family mode;
         (family, mode) :: seen)
       [] rows)

let both_modes rows =
  List.iter
    (fun row ->
      let family, mode = cell row in
      if not (List.exists (fun r -> cell r = (family, other_mode mode)) rows)
      then
        fail "family %S has a %s row but no %s row" family mode
          (other_mode mode))
    rows

(* The claim the scheduler exists to establish, for max power and every
   CBTC family. *)
let scheduled_beats_passive rows =
  List.iter
    (fun row ->
      let family, mode = cell row in
      if
        mode = "passive"
        && (family = "max power" || String.starts_with ~prefix:"cbtc" family)
      then
        let passive = num_at row "lifetime_rounds" in
        let scheduled =
          num_at
            (List.find (fun r -> cell r = (family, "scheduled")) rows)
            "lifetime_rounds"
        in
        if not (scheduled > passive) then
          fail
            "family %S: scheduled lifetime (%g) must strictly exceed passive \
             (%g)"
            family scheduled passive)
    rows

let lifetime =
  kind ~schema:1 ~label:[ "family"; "mode" ]
    ~row_pins:[ rotation_matches_mode; cover_sets_match_mode ]
    ~table_pins:[ unique_cells; both_modes; scheduled_beats_passive ]
    ([
       ("bench", one_of [ "lifetime" ]);
       ("family", string);
       ("mode", one_of [ "passive"; "scheduled" ]);
       ("n", pos_int);
       ("trials", pos_int);
       ("capacity", positive);
       ("rx_overhead", positive);
       ("energy_per_delivered", positive);
       ("rotation_period", nat);
       ("duty", within 0. 1.);
     ]
    @ List.map
        (fun k -> (k, finite_nonneg))
        [ "idle_listen"; "lifetime_rounds"; "first_death"; "delivered";
          "dropped"; "cover_sets"; "epochs"; "awake_node_rounds" ])

let identical_to_j1 row =
  if J.member "identical" row <> Some (J.Bool true) then
    fail "identical is false: the -j %d digest differs from the -j 1 run"
      (int_at row "jobs")

let parallel =
  kind ~schema:1 ~unit:"seconds" ~header:[ ("host_cores", pos_int) ]
    ~label:[ "workload"; "jobs" ] ~row_pins:[ identical_to_j1 ]
    [
      ("workload", string);
      ("jobs", pos_int);
      ("wall_s", nonneg);
      ("speedup_vs_j1", nonneg);
      ("identical", boolean);
    ]

let kinds =
  [ ("perf", perf); ("daemon", daemon); ("shadowing", shadowing);
    ("lifetime", lifetime); ("parallel", parallel) ]

(* ---------- the envelope ---------- *)

let row_context kind i row =
  let named =
    List.filter_map
      (fun k -> Option.map (fun v -> k ^ "=" ^ J.to_string v) (J.member k row))
      kind.label
  in
  if named = [] then Fmt.str "results[%d]" i
  else Fmt.str "results[%d] (%s)" i (String.concat " " named)

let validate kind contents =
  let doc =
    try J.of_string contents
    with J.Parse_error e -> fail "unparsable JSON: %s" e
  in
  (match J.member "schema" doc with
  | Some (J.Int v) when v = kind.schema -> ()
  | Some (J.Int v) -> fail "unsupported schema %d (expected %d)" v kind.schema
  | _ -> fail "missing integer field \"schema\"");
  Option.iter
    (fun u ->
      if J.member "unit" doc <> Some (J.Str u) then
        fail "missing field \"unit\" = %S" u)
    kind.unit;
  check_spec "document" ~prefix:"" kind.header doc;
  let rows =
    match J.member "results" doc with
    | Some (J.List []) -> fail "\"results\" is empty"
    | Some (J.List rows) -> rows
    | _ -> fail "missing list field \"results\""
  in
  List.iteri
    (fun i row ->
      let ctx = row_context kind i row in
      check_spec ctx ~prefix:"" kind.columns row;
      List.iter
        (fun pin -> try pin row with Invalid msg -> fail "%s: %s" ctx msg)
        kind.row_pins)
    rows;
  List.iter (fun pin -> pin rows) kind.table_pins;
  Fmt.str "%d rows" (List.length rows)

let validate_trace contents =
  let lines =
    match List.rev (String.split_on_char '\n' contents) with
    | "" :: rest -> List.rev rest
    | lines -> List.rev lines
  in
  match Trace_check.check lines with
  | Ok events -> Fmt.str "%d events" events
  | Error msg -> raise (Invalid msg)

let () =
  let usage () =
    Fmt.epr "usage: validate_bench KIND FILE (KIND: trace | %s)@."
      (String.concat " | " (List.map fst kinds));
    exit 2
  in
  let run, name, path =
    match Sys.argv with
    | [| _; "trace"; path |] -> (validate_trace, "trace", path)
    | [| _; name; path |] -> (
        match List.assoc_opt name kinds with
        | Some kind -> (validate kind, name, path)
        | None -> usage ())
    | _ -> usage ()
  in
  let contents =
    match open_in_bin path with
    | exception Sys_error e ->
        Fmt.epr "validate_bench: %s@." e;
        exit 2
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
  in
  match run contents with
  | summary -> Fmt.pr "validate_bench: %s OK (%s, %s)@." path name summary
  | exception Invalid msg ->
      Fmt.epr "validate_bench: %s: %s@." path msg;
      exit 1
