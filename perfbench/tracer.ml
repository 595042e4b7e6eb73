let now = Sys.time

type layer = int

type t = {
  origin : float;
  mutable on : bool;
  mutable step : int;
  mutable names : string array;
  mutable busy : float array;
  mutable count : int array;
  (* one row per span, struct-of-arrays *)
  mutable s_layer : int array;
  mutable s_start : float array;
  mutable s_stop : float array;
  mutable s_parent : int array;
  mutable s_step : int array;
  mutable len : int;
  mutable open_span : int;
}

let create () =
  let cap = 4096 in
  {
    origin = now ();
    on = false;
    step = -1;
    names = [||];
    busy = [||];
    count = [||];
    s_layer = Array.make cap 0;
    s_start = Array.make cap 0.;
    s_stop = Array.make cap 0.;
    s_parent = Array.make cap 0;
    s_step = Array.make cap 0;
    len = 0;
    open_span = -1;
  }

let layer t name =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| name |];
      t.busy <- Array.append t.busy [| 0. |];
      t.count <- Array.append t.count [| 0 |];
      i
    end
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let set_enabled t on = t.on <- on

let enabled t = t.on

let set_step t s = t.step <- s

let grow t =
  let cap = 2 * Array.length t.s_layer in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.s_layer <- ext t.s_layer 0;
  t.s_start <- ext t.s_start 0.;
  t.s_stop <- ext t.s_stop 0.;
  t.s_parent <- ext t.s_parent 0;
  t.s_step <- ext t.s_step 0

let span t l f =
  if not t.on then f ()
  else begin
    if t.len = Array.length t.s_layer then grow t;
    let i = t.len in
    t.len <- i + 1;
    let parent = t.open_span in
    t.s_layer.(i) <- l;
    t.s_parent.(i) <- parent;
    t.s_step.(i) <- t.step;
    t.open_span <- i;
    let t0 = now () in
    t.s_start.(i) <- t0;
    let r = f () in
    let t1 = now () in
    t.s_stop.(i) <- t1;
    t.busy.(l) <- t.busy.(l) +. (t1 -. t0);
    t.count.(l) <- t.count.(l) + 1;
    t.open_span <- parent;
    r
  end

let busy_s t l = t.busy.(l)

let calls t l = t.count.(l)

let length t = t.len

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.len - 1 do
        output_string oc
          (Obs.Jsonl.to_string
             (Obs.Jsonl.Obj
                [
                  ("name", Obs.Jsonl.Str t.names.(t.s_layer.(i)));
                  ("start", Obs.Jsonl.Float (t.s_start.(i) -. t.origin));
                  ("end", Obs.Jsonl.Float (t.s_stop.(i) -. t.origin));
                  ("parent", Obs.Jsonl.Int t.s_parent.(i));
                  ("step", Obs.Jsonl.Int t.s_step.(i));
                ]));
        output_char oc '\n'
      done)
