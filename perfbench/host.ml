(* Host-noise sidecar: what else the machine was doing during a run.
   Recorded next to every result and never gated on, so a slow run on a
   busy host can be told apart from a slow program. *)

let read_file path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

(* The aggregate "cpu" line of /proc/stat: user nice system idle iowait
   irq softirq steal ... *)
let steal_jiffies () =
  match read_file "/proc/stat" with
  | None -> None
  | Some s -> (
      match String.split_on_char '\n' s with
      | line :: _ -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' line) with
          | "cpu" :: fields when List.length fields >= 8 ->
              int_of_string_opt (List.nth fields 7)
          | _ -> None)
      | [] -> None)

let loadavg () =
  match read_file "/proc/loadavg" with
  | None -> []
  | Some s -> (
      match String.split_on_char ' ' (String.trim s) with
      | a :: b :: c :: _ -> List.filter_map float_of_string_opt [ a; b; c ]
      | _ -> [])

type t = { steal0 : int option }

let start () = { steal0 = steal_jiffies () }

let finish t ~jobs =
  let open Obs.Jsonl in
  Obj
    [
      ( "steal_jiffies",
        match (t.steal0, steal_jiffies ()) with
        | Some a, Some b -> Int (b - a)
        | _ -> Null );
      ("loadavg", List (List.map (fun x -> Float x) (loadavg ())));
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("jobs", Int jobs);
      ("ocaml_version", Str Sys.ocaml_version);
    ]
