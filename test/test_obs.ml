(* Tests for the observability layer: the JSON serializer/parser, the
   log2 histogram, the recorder (counters, spans, manifest, trace), and
   the determinism contract — merged clockless recorders and discovery
   counters must be identical for every pool size. *)

let json = Alcotest.testable (Fmt.of_to_string Obs.Jsonl.to_string) ( = )

(* ---------- Jsonl ---------- *)

let test_jsonl_roundtrip () =
  let v =
    Obs.Jsonl.(
      Obj
        [
          ("a", Int 3);
          ("b", Str "say \"hi\"\n\t\\");
          ("c", List [ Null; Bool true; Bool false; Float 0.1 ]);
          ("d", Obj [ ("nested", Float (-2.5)) ]);
          ("e", List []);
        ])
  in
  Alcotest.check json "parse inverts print" v
    (Obs.Jsonl.of_string (Obs.Jsonl.to_string v))

let test_jsonl_floats () =
  (* shortest round-tripping decimal, and non-finite collapses to null *)
  Alcotest.(check string) "0.1 stays short" "0.1"
    (Obs.Jsonl.to_string (Obs.Jsonl.Float 0.1));
  Alcotest.(check string) "integral float drops the point" "2"
    (Obs.Jsonl.to_string (Obs.Jsonl.Float 2.));
  Alcotest.(check string) "nan is null" "null"
    (Obs.Jsonl.to_string (Obs.Jsonl.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Obs.Jsonl.to_string (Obs.Jsonl.Float Float.infinity))

let test_jsonl_parse_errors () =
  let rejects s =
    match Obs.Jsonl.of_string s with
    | exception Obs.Jsonl.Parse_error _ -> ()
    | v ->
        Alcotest.failf "%S should not parse, got %s" s (Obs.Jsonl.to_string v)
  in
  List.iter rejects
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "{\"a\":1}x"; "\"unterminated";
      "1e999"; "nul" ]

let test_jsonl_member () =
  let v = Obs.Jsonl.Obj [ ("a", Obs.Jsonl.Int 1); ("b", Obs.Jsonl.Null) ] in
  Alcotest.(check bool) "present" true
    (Obs.Jsonl.member "b" v = Some Obs.Jsonl.Null);
  Alcotest.(check bool) "absent" true (Obs.Jsonl.member "z" v = None);
  Alcotest.(check bool) "non-object" true
    (Obs.Jsonl.member "a" (Obs.Jsonl.Int 3) = None)

(* ---------- Hist ---------- *)

let test_hist_basic () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) [ 1.0; 2.0; 0.5; 4.0 ];
  Alcotest.(check int) "count" 4 (Obs.Hist.count h);
  Alcotest.(check (float 1e-12)) "sum" 7.5 (Obs.Hist.sum h);
  match Obs.Jsonl.member "min" (Obs.Hist.to_json h) with
  | Some (Obs.Jsonl.Float m) -> Alcotest.(check (float 0.)) "min" 0.5 m
  | _ -> Alcotest.fail "min missing from to_json"

let test_hist_merge () =
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  List.iter (Obs.Hist.observe a) [ 1.0; 8.0 ];
  List.iter (Obs.Hist.observe b) [ 0.25; 100. ];
  Obs.Hist.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 4 (Obs.Hist.count a);
  Alcotest.(check (float 1e-9)) "merged sum" 109.25 (Obs.Hist.sum a)

(* ---------- Recorder basics ---------- *)

let test_nil_is_inert () =
  let t = Obs.Recorder.nil in
  Alcotest.(check bool) "disabled" false (Obs.Recorder.enabled t);
  Obs.Recorder.incr t "x";
  Obs.Recorder.observe t "h" 1.;
  Obs.Recorder.set_int t "k" 1;
  Obs.Recorder.event t "p";
  Alcotest.(check int) "counter stays 0" 0 (Obs.Recorder.counter t "x");
  Alcotest.(check (list string)) "no trace" [] (Obs.Recorder.trace_lines t);
  Alcotest.(check int) "span still runs body" 41
    (Obs.Recorder.span t "s" (fun () -> 41))

let test_counters_and_manifest () =
  let t = Obs.Recorder.create () in
  Obs.Recorder.incr t "b";
  Obs.Recorder.incr ~by:4 t "a";
  Obs.Recorder.incr t "b";
  Obs.Recorder.set_int t "n" 10;
  Obs.Recorder.set_str t "mode" "exact";
  Obs.Recorder.set_int t "n" 20;
  (* overwrite keeps position *)
  Alcotest.(check (list (pair string int))) "counters sorted"
    [ ("a", 4); ("b", 2) ]
    (Obs.Recorder.counters t);
  Alcotest.(check int) "missing counter is 0" 0 (Obs.Recorder.counter t "zz");
  match Obs.Recorder.trace_lines t with
  | manifest :: _ ->
      let m = Obs.Jsonl.of_string manifest in
      Alcotest.(check bool) "manifest tagged" true
        (Obs.Jsonl.member "ev" m = Some (Obs.Jsonl.Str "manifest"));
      Alcotest.(check bool) "schema present" true
        (Obs.Jsonl.member "schema" m <> None);
      Alcotest.(check bool) "overwritten key" true
        (Obs.Jsonl.member "n" m = Some (Obs.Jsonl.Int 20))
  | [] -> Alcotest.fail "trace must start with a manifest line"

(* The trace schema the docs promise (Trace_check, shared with
   validate_bench): manifest first, [seq] from 1, balanced spans, and
   every depth equal to the number of open spans. *)
let validate_trace lines =
  match Trace_check.check lines with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let test_spans_nest_and_validate () =
  let t = Obs.Recorder.create () in
  Obs.Recorder.span t "outer" (fun () ->
      Obs.Recorder.event t "tick";
      Obs.Recorder.span t "inner" (fun () -> Obs.Recorder.incr t "work");
      Obs.Recorder.event ~fields:[ ("k", Obs.Jsonl.Int 1) ] t "tock");
  validate_trace (Obs.Recorder.trace_lines t);
  Alcotest.(check int) "7 lines: manifest + 6 events" 7
    (List.length (Obs.Recorder.trace_lines t))

let test_span_survives_exception () =
  let t = Obs.Recorder.create () in
  (try Obs.Recorder.span t "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  validate_trace (Obs.Recorder.trace_lines t)

let test_clockless_has_no_timing () =
  let t = Obs.Recorder.create () in
  Obs.Recorder.span t "s" (fun () -> ());
  Alcotest.(check bool) "no clock" true (Obs.Recorder.now t = None);
  List.iter
    (fun line ->
      let e = Obs.Jsonl.of_string line in
      Alcotest.(check bool) "no t field" true (Obs.Jsonl.member "t" e = None);
      Alcotest.(check bool) "no dur_s field" true
        (Obs.Jsonl.member "dur_s" e = None))
    (Obs.Recorder.trace_lines t)

let test_clocked_has_timing () =
  let fake = ref 0. in
  let clock () =
    let v = !fake in
    fake := v +. 1.;
    v
  in
  let t = Obs.Recorder.create ~clock () in
  Obs.Recorder.span t "s" (fun () -> ());
  match Obs.Recorder.trace_lines t with
  | [ _; b; e ] ->
      Alcotest.(check bool) "begin has t" true
        (Obs.Jsonl.member "t" (Obs.Jsonl.of_string b) <> None);
      (* an integral duration serializes as a JSON integer *)
      (match Obs.Jsonl.member "dur_s" (Obs.Jsonl.of_string e) with
      | Some (Obs.Jsonl.Float d) ->
          Alcotest.(check (float 1e-12)) "duration from clock" 1. d
      | Some (Obs.Jsonl.Int d) ->
          Alcotest.(check int) "duration from clock" 1 d
      | _ -> Alcotest.fail "span_end missing dur_s")
  | l -> Alcotest.failf "expected 3 lines, got %d" (List.length l)

(* ---------- merge determinism ---------- *)

let trial_recorder seed =
  let t = Obs.Recorder.create () in
  Obs.Recorder.span t "trial" (fun () ->
      Obs.Recorder.incr ~by:seed t "work";
      Obs.Recorder.observe t "lat" (Stdlib.float_of_int seed));
  t

let test_merge_is_order_fixed () =
  (* Merging the same trial recorders in the same (seed) order must give
     byte-identical traces and summaries no matter which domain produced
     them; merging in a different order changes the trace but not the
     counters. *)
  let merged () =
    let dst = Obs.Recorder.create () in
    List.iter
      (fun s -> Obs.Recorder.merge_into ~into:dst (trial_recorder s))
      [ 1; 2; 3 ];
    dst
  in
  let a = merged () and b = merged () in
  Alcotest.(check (list string)) "traces identical"
    (Obs.Recorder.trace_lines a) (Obs.Recorder.trace_lines b);
  Alcotest.(check string) "summaries identical" (Obs.Recorder.summary_string a)
    (Obs.Recorder.summary_string b);
  validate_trace (Obs.Recorder.trace_lines a);
  Alcotest.(check int) "counters accumulate" 6 (Obs.Recorder.counter a "work")

let test_merge_rebases_depth () =
  (* A trial trace merged while the destination sits inside a span must
     nest under it, or the merged trace fails depth validation. *)
  let dst = Obs.Recorder.create () in
  Obs.Recorder.span dst "sweep" (fun () ->
      Obs.Recorder.merge_into ~into:dst (trial_recorder 7));
  validate_trace (Obs.Recorder.trace_lines dst)

let test_merge_into_nil_is_noop () =
  Obs.Recorder.merge_into ~into:Obs.Recorder.nil (trial_recorder 1);
  let dst = Obs.Recorder.create () in
  Obs.Recorder.merge_into ~into:dst Obs.Recorder.nil;
  Alcotest.(check (list (pair string int))) "nothing merged" []
    (Obs.Recorder.counters dst)

(* ---------- counters invariant across -j (the ISSUE's differential
   property) ---------- *)

let pl = Radio.Pathloss.make ~max_range:25. ()

let positions_gen =
  QCheck.Gen.(
    int_range 2 30 >>= fun n ->
    list_repeat n (pair (float_bound_exclusive 60.) (float_bound_exclusive 60.))
    >|= fun pts -> Array.of_list (List.map (fun (x, y) -> Geom.Vec2.make x y) pts))

let traced_run ~jobs positions =
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let obs = Obs.Recorder.create () in
      let d =
        Cbtc.Geo.run ~pool ~obs
          (Cbtc.Config.make Geom.Angle.five_pi_six)
          pl positions
      in
      ignore d;
      (Obs.Recorder.summary_string obs, Obs.Recorder.trace_lines obs))

let prop_counters_invariant_across_jobs =
  QCheck.Test.make ~count:25
    ~name:"discovery metrics and trace are identical for -j 1/2/4"
    (QCheck.make positions_gen)
    (fun positions ->
      let s1, t1 = traced_run ~jobs:1 positions in
      let s2, t2 = traced_run ~jobs:2 positions in
      let s4, t4 = traced_run ~jobs:4 positions in
      s1 = s2 && s2 = s4 && t1 = t2 && t2 = t4)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "obs"
    [
      ( "jsonl",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "floats" `Quick test_jsonl_floats;
          Alcotest.test_case "parse errors" `Quick test_jsonl_parse_errors;
          Alcotest.test_case "member" `Quick test_jsonl_member;
        ] );
      ( "hist",
        [
          Alcotest.test_case "basic" `Quick test_hist_basic;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "nil is inert" `Quick test_nil_is_inert;
          Alcotest.test_case "counters and manifest" `Quick
            test_counters_and_manifest;
          Alcotest.test_case "spans nest and validate" `Quick
            test_spans_nest_and_validate;
          Alcotest.test_case "span survives exception" `Quick
            test_span_survives_exception;
          Alcotest.test_case "clockless has no timing" `Quick
            test_clockless_has_no_timing;
          Alcotest.test_case "clocked has timing" `Quick test_clocked_has_timing;
        ] );
      ( "merge",
        [
          Alcotest.test_case "order-fixed merge is deterministic" `Quick
            test_merge_is_order_fixed;
          Alcotest.test_case "merge rebases depth" `Quick test_merge_rebases_depth;
          Alcotest.test_case "nil merge is a no-op" `Quick
            test_merge_into_nil_is_noop;
        ] );
      ("determinism", qsuite [ prop_counters_invariant_across_jobs ]);
    ]
