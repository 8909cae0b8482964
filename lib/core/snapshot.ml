module W = Rsmr_app.Codec.Writer
module R = Rsmr_app.Codec.Reader

type t = { app : string; sessions : string }

let write w t =
  W.string w t.app;
  W.string w t.sessions

let encode t = W.to_string write t

let read r =
  let app = R.string r in
  let sessions = R.string r in
  { app; sessions }

let decode s = read (R.of_string s)

let chunk_bytes = 64 * 1024

let chunk s ~size =
  if size <= 0 then invalid_arg "Snapshot.chunk: size must be positive";
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
