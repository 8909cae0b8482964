(* Parallel-array layout: [times] is an unboxed float array and [seqs] a
   plain int array, so key comparisons during sifts touch no boxed
   records; [payloads] holds the scheduled closures.  A vacated payload
   slot is overwritten with the heap's [dummy], so a popped entry is not
   left reachable at [payloads.(len)], pinning an arbitrary closure (and
   everything it captured) until the slot happened to be reused; a
   [Some]-per-slot layout would pay a block for every push. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy =
  { times = [||]; seqs = [||]; payloads = [||]; len = 0; dummy }
let is_empty t = t.len = 0
let size t = t.len

let less t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let payload = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- payload

let resize t ncap =
  let times = Array.make ncap 0.0 in
  let seqs = Array.make ncap 0 in
  let payloads = Array.make ncap t.dummy in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time ~seq payload =
  if t.len = Array.length t.times then
    resize t (max 16 (2 * Array.length t.times));
  t.times.(t.len) <- time;
  t.seqs.(t.len) <- seq;
  t.payloads.(t.len) <- payload;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while !i > 0 && less t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap t !i p;
    i := p
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.len && less t l !smallest then smallest := l;
    if r < t.len && less t r !smallest then smallest := r;
    if !smallest = !i then continue := false
    else begin
      swap t !i !smallest;
      i := !smallest
    end
  done

(* Hand storage back after bursts: when occupancy falls below a quarter
   of capacity, halve the arrays (with a floor so steady-state queues
   never thrash). *)
let maybe_shrink t =
  let cap = Array.length t.times in
  if cap > 64 && t.len * 4 < cap then resize t (cap / 2)

let top t = if t.len = 0 then t.dummy else t.payloads.(0)

let drop t =
  if t.len > 0 then begin
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.times.(0) <- t.times.(t.len);
      t.seqs.(0) <- t.seqs.(t.len);
      t.payloads.(0) <- t.payloads.(t.len);
      sift_down t
    end;
    (* Clear the vacated slot so the payload is collectable immediately. *)
    t.payloads.(t.len) <- t.dummy;
    maybe_shrink t
  end

let iter t f =
  for i = 0 to t.len - 1 do
    f t.times.(i) t.seqs.(i) t.payloads.(i)
  done

let to_sorted_list t =
  let acc = ref [] in
  iter t (fun time seq p -> acc := (time, seq, p) :: !acc);
  List.sort
    (fun (t1, s1, _) (t2, s2, _) ->
      match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c)
    !acc
