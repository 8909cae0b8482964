type kind = Noop | Value of string
type entry = { ballot : Ballot.t; kind : kind }

(* Slot [i] lives at offset [i land chunk_mask] of chunk [i lsr chunk_bits]:
   its ballot and its kind in two parallel arrays and its flags in one
   byte.  A chunk is allocated whole when the log first reaches it and is
   never copied; only the spine of chunk pointers doubles. *)
let chunk_bits = 6
let chunk_slots = 1 lsl chunk_bits
let chunk_mask = chunk_slots - 1

(* Flag bits. *)
let populated = 1
let committed = 2

type chunk = { ballots : Ballot.t array; kinds : kind array; flags : Bytes.t }

type t = {
  mutable chunks : chunk array; (* spine; [n_chunks] of its cells are live *)
  mutable n_chunks : int;
  mutable len : int; (* one past highest populated index *)
  mutable committed_prefix : int;
}

let no_chunk = { ballots = [||]; kinds = [||]; flags = Bytes.empty }

let fresh_chunk () =
  {
    ballots = Array.make chunk_slots Ballot.zero;
    kinds = Array.make chunk_slots Noop;
    flags = Bytes.make chunk_slots '\000';
  }

let create () = { chunks = [||]; n_chunks = 0; len = 0; committed_prefix = 0 }
let length t = t.len

let grow t c =
  if c >= Array.length t.chunks then begin
    let spine =
      Array.make (max 4 (max (c + 1) (2 * Array.length t.chunks))) no_chunk
    in
    Array.blit t.chunks 0 spine 0 t.n_chunks;
    t.chunks <- spine
  end;
  for k = t.n_chunks to c do
    t.chunks.(k) <- fresh_chunk ()
  done;
  t.n_chunks <- c + 1

let ensure t i =
  let c = i lsr chunk_bits in
  if c >= t.n_chunks then grow t c;
  if i >= t.len then t.len <- i + 1

(* Callers check [0 <= i < t.len], so the chunk exists. *)
let chunk t i = t.chunks.(i lsr chunk_bits)
let flags t i = Char.code (Bytes.get (chunk t i).flags (i land chunk_mask))

let add_flag t i f =
  let c = chunk t i in
  let o = i land chunk_mask in
  Bytes.set c.flags o (Char.unsafe_chr (Char.code (Bytes.get c.flags o) lor f))

let has t i f = i >= 0 && i < t.len && flags t i land f <> 0
let is_populated t i = has t i populated
let is_committed t i = has t i committed
let ballot_at t i = (chunk t i).ballots.(i land chunk_mask)
let kind_at t i = (chunk t i).kinds.(i land chunk_mask)

let get t i =
  if is_populated t i then Some { ballot = ballot_at t i; kind = kind_at t i }
  else None

let store t i ~ballot kind =
  let c = chunk t i in
  let o = i land chunk_mask in
  c.ballots.(o) <- ballot;
  c.kinds.(o) <- kind;
  add_flag t i populated

let set_at t i ~ballot kind =
  if i < 0 then invalid_arg "Log.set_at: negative index";
  ensure t i;
  store t i ~ballot kind

let advance_prefix t =
  while
    t.committed_prefix < t.len
    && flags t t.committed_prefix land committed <> 0
  do
    t.committed_prefix <- t.committed_prefix + 1
  done

let mark_committed t i =
  if i < 0 then invalid_arg "Log.mark_committed: negative index";
  ensure t i;
  add_flag t i committed;
  advance_prefix t

let set_committed t i kind =
  if i < 0 then invalid_arg "Log.set_committed: negative index";
  ensure t i;
  (* A committed slot never changes value: chosen is chosen.  A
     conflicting commit can only come from a faulty peer, so keep the
     first value rather than crash on hostile wire input. *)
  if flags t i land (populated lor committed) <> populated lor committed then
    store t i ~ballot:Ballot.zero kind;
  add_flag t i committed;
  advance_prefix t

let committed_prefix t = t.committed_prefix

let entries_from t lo =
  let acc = ref [] in
  for i = t.len - 1 downto max lo 0 do
    if flags t i land populated <> 0 then
      acc := (i, { ballot = ballot_at t i; kind = kind_at t i }) :: !acc
  done;
  !acc

let committed_values t ~lo ~hi =
  let acc = ref [] in
  for i = min hi (t.len - 1) downto max lo 0 do
    if flags t i land (populated lor committed) = populated lor committed then
      acc := (i, kind_at t i) :: !acc
  done;
  !acc

let pp_kind ppf = function
  | Noop -> Format.pp_print_string ppf "noop"
  | Value v -> Format.fprintf ppf "value(%d bytes)" (String.length v)

let encode_kind w = function
  | Noop -> Rsmr_app.Codec.Writer.u8 w 0
  | Value v ->
    Rsmr_app.Codec.Writer.u8 w 1;
    Rsmr_app.Codec.Writer.string w v

let decode_kind r =
  match Rsmr_app.Codec.Reader.u8 r with
  | 0 -> Noop
  | 1 -> Value (Rsmr_app.Codec.Reader.string r)
  | _ -> raise Rsmr_app.Codec.Truncated
