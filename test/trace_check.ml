exception Violation of string

let fail line fmt =
  Fmt.kstr (fun msg -> raise (Violation (Fmt.str "line %d: %s" line msg))) fmt

let parse lineno s =
  try Obs.Jsonl.of_string s
  with Obs.Jsonl.Parse_error e -> fail lineno "unparsable JSON: %s" e

let str lineno v k =
  match Obs.Jsonl.member k v with
  | Some (Obs.Jsonl.Str s) -> s
  | _ -> fail lineno "missing string field %S" k

let int lineno v k =
  match Obs.Jsonl.member k v with
  | Some (Obs.Jsonl.Int n) -> n
  | _ -> fail lineno "missing integer field %S" k

let check_events manifest events =
  let m = parse 1 manifest in
  if str 1 m "ev" <> "manifest" then fail 1 "first line is not a manifest";
  if int 1 m "schema" <> 1 then fail 1 "unsupported schema";
  ignore (str 1 m "version");
  let open_spans = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 2 in
      let e = parse lineno line in
      if int lineno e "seq" <> i + 1 then
        fail lineno "seq %d, expected %d" (int lineno e "seq") (i + 1);
      let depth = int lineno e "depth" in
      let name = str lineno e "name" in
      match str lineno e "ev" with
      | "span_begin" ->
          if depth <> List.length !open_spans then
            fail lineno "span_begin %S at depth %d with %d spans open" name
              depth (List.length !open_spans);
          open_spans := name :: !open_spans
      | "span_end" -> (
          match !open_spans with
          | top :: rest when top = name && depth = List.length rest ->
              open_spans := rest
          | top :: _ -> fail lineno "span_end %S does not close %S" name top
          | [] -> fail lineno "span_end %S with no span open" name)
      | "point" ->
          if depth <> List.length !open_spans then
            fail lineno "point %S at depth %d with %d spans open" name depth
              (List.length !open_spans)
      | ev -> fail lineno "unknown event type %S" ev)
    events;
  match !open_spans with
  | [] -> List.length events
  | top :: _ ->
      raise (Violation (Fmt.str "trace ends with span %S still open" top))

let check = function
  | [] -> Error "empty trace"
  | manifest :: events -> (
      try Ok (check_events manifest events) with Violation msg -> Error msg)
