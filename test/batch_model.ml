(* Reference model of [Rsmr_sim.Batch]: the batcher as it was before the
   two-list FIFO, one newest-first list that a capped take rebuilds,
   kept as the executable specification the FIFO is checked against.
   Same window rule, timer and results; only the cost differs (a take
   that leaves [k] values behind copies them twice). *)

module Engine = Rsmr_sim.Engine

type 'a t = {
  engine : Engine.t;
  delay : float;
  max : int;
  flush : unit -> unit;
  mutable buf : 'a list; (* newest first *)
  mutable len : int;
  mutable timer : Engine.timer option;
}

let create engine ~delay ~max ~flush =
  { engine; delay; max; flush; buf = []; len = 0; timer = None }

let push b x =
  b.buf <- x :: b.buf;
  b.len <- b.len + 1

let add b x =
  push b x;
  if b.delay <= 0.0 || b.len >= b.max then b.flush ()
  else
    match b.timer with
    | Some _ -> ()
    | None ->
      b.timer <-
        Some
          (Engine.schedule b.engine ~delay:b.delay (fun () ->
               b.timer <- None;
               b.flush ()))

let rec drop k l = match l with _ :: tl when k > 0 -> drop (k - 1) tl | _ -> l

let rec rev_prefix k acc l =
  match l with x :: tl when k > 0 -> rev_prefix (k - 1) (x :: acc) tl | _ -> acc

let take b cap =
  if cap <= 0 then []
  else begin
    let keep = b.len - min cap b.len in
    let taken = List.rev (drop keep b.buf) in
    b.buf <- List.rev (rev_prefix keep [] b.buf);
    b.len <- keep;
    b.timer <- Engine.cancel_opt b.engine b.timer;
    taken
  end

let drain b = take b max_int
let cancel b = b.timer <- Engine.cancel_opt b.engine b.timer

let pump b =
  match b.timer with None when b.len > 0 -> b.flush () | Some _ | None -> ()

let mem ~equal x b = List.exists (equal x) b.buf
let contents b = b.buf
let armed b = Engine.armed b.timer
