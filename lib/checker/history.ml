type op = {
  client : Rsmr_net.Node_id.t;
  cmd : string;
  rsp : string;
  invoked : float;
  replied : float;
}

type t = { mutable rev_ops : op list; mutable n : int }

let create () = { rev_ops = []; n = 0 }

let add t op =
  t.rev_ops <- op :: t.rev_ops;
  t.n <- t.n + 1

let ops t =
  List.sort (fun a b -> compare a.invoked b.invoked) (List.rev t.rev_ops)

let length t = t.n

let concurrency t =
  let events =
    List.concat_map (fun o -> [ (o.invoked, 1); (o.replied, -1) ]) t.rev_ops
    |> List.sort compare
  in
  let _, peak =
    List.fold_left
      (fun (cur, peak) (_, d) ->
        let cur = cur + d in
        (cur, max cur peak))
      (0, 0) events
  in
  peak
