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

(* A byte stream held as a list of strings, read front to back: the
   donor's is the encoding's four segments, a joiner's the chunks it
   holds.  [left] counts the bytes not yet read. *)
type cursor = { mutable segs : string list; mutable off : int; mutable left : int }

let cursor segs =
  { segs; off = 0; left = List.fold_left (fun n s -> n + String.length s) 0 segs }

(* Copy the next [len] bytes, [len <= c.left], into [dst] at [at]. *)
let rec blit c dst at len =
  match c.segs with
  | s :: rest when len > 0 ->
    let k = min len (String.length s - c.off) in
    Bytes.blit_string s c.off dst at k;
    if c.off + k = String.length s then begin
      c.segs <- rest;
      c.off <- 0
    end
    else c.off <- c.off + k;
    c.left <- c.left - k;
    blit c dst (at + k) (len - k)
  | _ :: _ | [] -> ()

let take c len =
  let b = Bytes.create len in
  blit c b 0 len;
  Bytes.unsafe_to_string b

let chunk t ~size =
  if size <= 0 then invalid_arg "Snapshot.chunk: size must be positive";
  let app = W.to_string W.varint (String.length t.app) in
  let sessions = W.to_string W.varint (String.length t.sessions) in
  let c = cursor [ app; t.app; sessions; t.sessions ] in
  let rec go acc =
    if c.left = 0 then List.rev acc else go (take c (min size c.left) :: acc)
  in
  go []
[@@rsmr.codec.oneway]

let of_chunks chunks =
  let c = cursor chunks in
  (* A part's length prefix, which may straddle chunks: its bytes up to
     the first without a continuation bit, nine at most, go to the
     codec's own varint.  A prefix past the bytes held raises before
     anything is allocated for the part. *)
  let length () =
    let h = Bytes.create 9 in
    let rec gather k =
      if k = 9 || c.left = 0 then k
      else begin
        blit c h k 1;
        if Char.code (Bytes.get h k) < 0x80 then k + 1 else gather (k + 1)
      end
    in
    let n = R.varint (R.of_string (Bytes.sub_string h 0 (gather 0))) in
    if n > c.left then raise Rsmr_app.Codec.Truncated;
    n
  in
  let app = take c (length ()) in
  let sessions = take c (length ()) in
  { app; sessions }
[@@rsmr.codec.oneway]
