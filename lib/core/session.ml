module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

(* One client.  [floor] = highest sequence known applied-and-acknowledged
   (its response has been dropped).  The response window holds the cached
   responses, sorted by seq, in the parallel arrays [seqs]/[rsps] at
   positions [head, tail): [record] appends at the tail, [trim] advances
   the head, [check] binary-searches.  Response slots outside the window
   hold "", so dropped responses can be collected. *)
type entry = {
  client : Rsmr_net.Node_id.t;
  mutable floor : int;
  mutable seqs : int array;
  mutable rsps : string array;
  mutable head : int;
  mutable tail : int;
}

(* The clients, sorted by id, in [entries.(0 .. n - 1)]. *)
type t = { mutable entries : entry array; mutable n : int }

let create () = { entries = [||]; n = 0 }

(* First position in the client table whose id is >= [client]. *)
let client_pos t client =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.entries.(mid).client < client then lo := mid + 1 else hi := mid
  done;
  !lo

(* First position in [e]'s window whose seq is >= [seq]. *)
let seq_pos e seq =
  let lo = ref e.head and hi = ref e.tail in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if e.seqs.(mid) < seq then lo := mid + 1 else hi := mid
  done;
  !lo

let check t ~client ~seq =
  let i = client_pos t client in
  if i = t.n || t.entries.(i).client <> client then `New
  else
    let e = t.entries.(i) in
    if seq <= e.floor then `Stale
    else
      let j = seq_pos e seq in
      if j < e.tail && e.seqs.(j) = seq then `Dup e.rsps.(j) else `New

(* The entry for [client], inserted in id order with floor -1 if absent. *)
let entry t client =
  let i = client_pos t client in
  if i < t.n && t.entries.(i).client = client then t.entries.(i)
  else begin
    let e = { client; floor = -1; seqs = [||]; rsps = [||]; head = 0; tail = 0 } in
    if t.n = Array.length t.entries then begin
      let grown = Array.make (max 4 (2 * t.n)) e in
      Array.blit t.entries 0 grown 0 t.n;
      t.entries <- grown
    end;
    Array.blit t.entries i t.entries (i + 1) (t.n - i);
    t.entries.(i) <- e;
    t.n <- t.n + 1;
    e
  end

(* Make room for one more response at the tail: slide the window back to
   position 0 while it fills at most half the arrays, else double them.
   Either way a window sliding at a steady depth stops allocating once the
   arrays are twice that depth. *)
let make_room e =
  let cap = Array.length e.seqs in
  if e.tail = cap then begin
    let live = e.tail - e.head in
    if 2 * live <= cap && cap > 0 then begin
      Array.blit e.seqs e.head e.seqs 0 live;
      Array.blit e.rsps e.head e.rsps 0 live;
      Array.fill e.rsps live (cap - live) ""
    end
    else begin
      let cap' = max 8 (2 * cap) in
      let seqs = Array.make cap' 0 and rsps = Array.make cap' "" in
      Array.blit e.seqs e.head seqs 0 live;
      Array.blit e.rsps e.head rsps 0 live;
      e.seqs <- seqs;
      e.rsps <- rsps
    end;
    e.head <- 0;
    e.tail <- live
  end

let record t ~client ~seq ~rsp =
  let e = entry t client in
  let j = seq_pos e seq in
  if j < e.tail && e.seqs.(j) = seq then e.rsps.(j) <- rsp
  else begin
    make_room e;
    (* in order, [seq] lands at the tail and nothing shifts *)
    let j = seq_pos e seq in
    Array.blit e.seqs j e.seqs (j + 1) (e.tail - j);
    Array.blit e.rsps j e.rsps (j + 1) (e.tail - j);
    e.seqs.(j) <- seq;
    e.rsps.(j) <- rsp;
    e.tail <- e.tail + 1
  end

let trim t ~client ~below =
  let i = client_pos t client in
  if i < t.n && t.entries.(i).client = client then begin
    let e = t.entries.(i) in
    e.floor <- max e.floor (below - 1);
    while e.head < e.tail && e.seqs.(e.head) <= e.floor do
      e.rsps.(e.head) <- "";
      e.head <- e.head + 1
    done;
    if e.head = e.tail then begin
      e.head <- 0;
      e.tail <- 0
    end
  end

let copy t =
  {
    entries =
      Array.init t.n (fun i ->
          let e = t.entries.(i) in
          let live = e.tail - e.head in
          {
            e with
            seqs = Array.sub e.seqs e.head live;
            rsps = Array.sub e.rsps e.head live;
            head = 0;
            tail = live;
          });
    n = t.n;
  }

let cardinal t =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    total := !total + t.entries.(i).tail - t.entries.(i).head
  done;
  !total

let write w t =
  W.varint w t.n;
  for i = 0 to t.n - 1 do
    let e = t.entries.(i) in
    W.zigzag w e.client;
    W.zigzag w e.floor;
    W.varint w (e.tail - e.head);
    for j = e.head to e.tail - 1 do
      W.varint w e.seqs.(j);
      W.string w e.rsps.(j)
    done
  done

let encode t = W.to_string write t

let read r =
  let t = create () in
  let nclients = R.varint r in
  for _ = 1 to nclients do
    let client = R.zigzag r in
    let floor = R.zigzag r in
    let nresp = R.varint r in
    (entry t client).floor <- floor;
    for _ = 1 to nresp do
      let seq = R.varint r in
      let rsp = R.string r in
      record t ~client ~seq ~rsp
    done
  done;
  t

let decode s = read (R.of_string s)
