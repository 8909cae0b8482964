(* A FIFO of two lists: [front] oldest first, where takes read, and
   [back] newest first, where pushes go.  The back is reversed onto the
   front only when the front runs dry, so each value is reversed at most
   once however many capped takes it waits through. *)
type 'a t = {
  engine : Engine.t;
  delay : float;
  max : int;
  flush : unit -> unit;
  mutable front : 'a list; (* oldest first *)
  mutable back : 'a list; (* newest first, all newer than [front] *)
  mutable len : int; (* length of both, kept O(1) *)
  mutable timer : Engine.timer option;
}

let create engine ~delay ~max ~flush =
  { engine; delay; max; flush; front = []; back = []; len = 0; timer = None }

let push b x =
  b.back <- x :: b.back;
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

(* Remove the [n] oldest values, at most [b.len] of them, oldest first. *)
let[@tail_mod_cons] rec pop b n =
  if n = 0 then []
  else
    match b.front with
    | x :: rest ->
      b.front <- rest;
      x :: pop b (n - 1)
    | [] -> (
      match b.back with
      | [] -> []
      | back ->
        b.front <- List.rev back;
        b.back <- [];
        pop b n)

(* A capped take copies only the values it removes; a take of the whole
   buffer copies at most the front, and nothing when only a front is
   left.  Neither copies a value that stays. *)
let take b cap =
  if cap <= 0 then []
  else begin
    let n = min cap b.len in
    let taken =
      if n < b.len then pop b n
      else begin
        let all =
          match b.back with [] -> b.front | back -> b.front @ List.rev back
        in
        b.front <- [];
        b.back <- [];
        all
      end
    in
    b.len <- b.len - n;
    b.timer <- Engine.cancel_opt b.engine b.timer;
    taken
  end

let drain b = take b max_int
let cancel b = b.timer <- Engine.cancel_opt b.engine b.timer

let pump b =
  match b.timer with None when b.len > 0 -> b.flush () | Some _ | None -> ()

let rec mem_list equal x = function
  | [] -> false
  | y :: rest -> equal x y || mem_list equal x rest

let mem ~equal x b = mem_list equal x b.front || mem_list equal x b.back

let contents b =
  match b.front with [] -> b.back | front -> b.back @ List.rev front

let armed b = Engine.armed b.timer
