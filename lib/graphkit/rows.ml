(* Flat sorted adjacency rows, shared by Ugraph and Digraph: row u is
   rows.(u).(0 .. deg.(u)-1), strictly increasing, with spare capacity
   past deg.(u).  Membership is a binary search; an insert past the last
   element is an append, so a builder that inserts in increasing order
   never shifts.  Callers check node ranges. *)

type t = { rows : int array array; deg : int array }

let create n = { rows = Array.make n [||]; deg = Array.make n 0 }

let length t = Array.length t.rows

let degree t u = t.deg.(u)

(* First index in [row.(0 .. len-1)] whose entry is >= v. *)
let lower_bound row len v =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get row mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Past the last entry is the appending builders' common case. *)
let mem t u v =
  let row = t.rows.(u) and len = t.deg.(u) in
  len > 0
  && Array.unsafe_get row (len - 1) >= v
  &&
  let i = lower_bound row len v in
  Array.unsafe_get row i = v

(* Insert v (known absent) into row u. *)
let insert t u v =
  let len = t.deg.(u) in
  let row =
    let row = t.rows.(u) in
    if len < Array.length row then row
    else begin
      let grown = Array.make (Stdlib.max 4 (2 * len)) 0 in
      Array.blit row 0 grown 0 len;
      t.rows.(u) <- grown;
      grown
    end
  in
  let i =
    if len = 0 || Array.unsafe_get row (len - 1) < v then len
    else lower_bound row len v
  in
  if i < len then Array.blit row i row (i + 1) (len - i);
  row.(i) <- v;
  t.deg.(u) <- len + 1

(* Remove v (known present) from row u. *)
let remove t u v =
  let row = t.rows.(u) and len = t.deg.(u) in
  let i = lower_bound row len v in
  Array.blit row (i + 1) row i (len - i - 1);
  t.deg.(u) <- len - 1

(* The row and its length are read once, so a callback that breaks the
   no-mutation contract sees a stale row, never out-of-bounds memory. *)
let iter t u f =
  let row = t.rows.(u) in
  for i = 0 to t.deg.(u) - 1 do
    f (Array.unsafe_get row i)
  done

let fold t u ~init ~f =
  let row = t.rows.(u) in
  let acc = ref init in
  for i = 0 to t.deg.(u) - 1 do
    acc := f !acc (Array.unsafe_get row i)
  done;
  !acc

let to_list t u =
  let row = t.rows.(u) in
  let acc = ref [] in
  for i = t.deg.(u) - 1 downto 0 do
    acc := Array.unsafe_get row i :: !acc
  done;
  !acc

let copy t =
  { rows = Array.mapi (fun u row -> Array.sub row 0 t.deg.(u)) t.rows;
    deg = Array.copy t.deg }

(* Row u of [a] is a subset of row u of [b]: one merge walk. *)
let subset a b u =
  let ra = a.rows.(u) and la = a.deg.(u) in
  let rb = b.rows.(u) and lb = b.deg.(u) in
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb && Array.unsafe_get rb !j <= Array.unsafe_get ra !i do
    if Array.unsafe_get rb !j = Array.unsafe_get ra !i then incr i;
    incr j
  done;
  !i = la

let for_all_rows t p =
  let n = length t in
  let rec go u = u >= n || (p u && go (u + 1)) in
  go 0

(* Adjacency rows are short: insertion sort beats the stdlib sorts there
   (whose heap sort also allocates an exception per sift). *)
let sort_row row =
  let len = Array.length row in
  if len <= 64 then
    for i = 1 to len - 1 do
      let v = Array.unsafe_get row i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get row !j > v do
        Array.unsafe_set row (!j + 1) (Array.unsafe_get row !j);
        decr j
      done;
      Array.unsafe_set row (!j + 1) v
    done
  else Array.stable_sort Int.compare row

(* Symmetric rows of the pairs [arcs] enumerates: each pair enters both
   endpoints' rows.  [arcs] runs twice: the first pass sizes every row
   exactly, the second fills it; each row is then sorted and
   deduplicated in place. *)
let of_arcs n arcs =
  let t = create n in
  let cnt = Array.make n 0 in
  arcs (fun u v ->
      cnt.(u) <- cnt.(u) + 1;
      cnt.(v) <- cnt.(v) + 1);
  for u = 0 to n - 1 do
    if cnt.(u) > 0 then t.rows.(u) <- Array.make cnt.(u) 0
  done;
  let put u v =
    let len = t.deg.(u) in
    (* a second enumeration longer than the first fails here *)
    t.rows.(u).(len) <- v;
    t.deg.(u) <- len + 1
  in
  arcs (fun u v ->
      put u v;
      put v u);
  if t.deg <> cnt then invalid_arg "Ugraph.of_arcs: the two enumerations differ";
  for u = 0 to n - 1 do
    let row = t.rows.(u) and len = t.deg.(u) in
    if len > 1 then begin
      sort_row row;
      let k = ref 1 in
      for i = 1 to len - 1 do
        let v = Array.unsafe_get row i in
        if v <> Array.unsafe_get row (!k - 1) then begin
          row.(!k) <- v;
          incr k
        end
      done;
      t.deg.(u) <- !k
    end
  done;
  t

let total_degree t = Array.fold_left ( + ) 0 t.deg
