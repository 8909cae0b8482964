(* Reference model of [Rsmr_core.Snapshot]'s chunking: the encoding
   built whole, cut with [String.sub] and joined with [String.concat],
   as state transfer did before the chunks were cut from the snapshot's
   parts.  [Snapshot.chunk t] must equal [chunk (Snapshot.encode t)]
   byte for byte, and [Snapshot.of_chunks] must agree with
   [Snapshot.decode] of [assemble]. *)

let chunk s ~size =
  if size <= 0 then invalid_arg "Snapshot_model.chunk: size must be positive";
  let n = String.length s in
  if n = 0 then [ "" ]
  else
    let rec go off acc =
      if off >= n then List.rev acc
      else
        let len = min size (n - off) in
        go (off + len) (String.sub s off len :: acc)
    in
    go 0 []

let assemble = String.concat ""
