exception Truncated

module Writer = struct
  (* A writer is an output sink: a [Bytes] buffer with an explicit write
     position, or a pure byte counter.  Every codec expresses its wire
     format once as a [write] function over this type; [to_string] runs
     it once against a counter and once into a buffer of exactly that
     size, and [size] runs only the counting pass, so the two can never
     drift.

     Without flambda every local closure and every boxed [Int64] is a
     heap allocation, so the primitives below are loops over native ints
     that capture nothing: writing or counting one allocates nothing. *)
  type t = { mutable buf : Bytes.t; mutable pos : int; counting : bool }

  let create ?(size_hint = 64) () =
    { buf = Bytes.create (max 1 size_hint); pos = 0; counting = false }

  (* Room for [n] more bytes on a real sink, doubling.  An exact-size
     writer never gets here unless its body wrote more than it counted,
     which [to_string] then reports. *)
  let grow t n =
    let cap = ref (max 1 (Bytes.length t.buf)) in
    while !cap < t.pos + n do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit t.buf 0 b 0 t.pos;
    t.buf <- b

  let[@inline] reserve t n = if t.pos + n > Bytes.length t.buf then grow t n

  (* The mask keeps the writer total (rsmr-flow): any int writes its low
     byte. *)
  let u8 t v =
    if not t.counting then begin
      reserve t 1;
      Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (v land 0xFF))
    end;
    t.pos <- t.pos + 1

  (* LEB128 length of a non-negative int: one byte per started 7-bit
     group. *)
  let varint_len v =
    let n = ref 1 and v = ref (v lsr 7) in
    while !v <> 0 do
      incr n;
      v := !v lsr 7
    done;
    !n

  (* Writes the [varint_len v] bytes of [v] from [t.pos] without moving
     it; the caller has made room. *)
  let put_varint t v =
    let p = ref t.pos and v = ref v in
    while !v >= 0x80 do
      Bytes.unsafe_set t.buf !p (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
      incr p;
      v := !v lsr 7
    done;
    Bytes.unsafe_set t.buf !p (Char.unsafe_chr !v)

  let unsigned t v =
    let n = varint_len v in
    if not t.counting then begin
      reserve t n;
      put_varint t v
    end;
    t.pos <- t.pos + n

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    unsigned t v

  (* Zigzag maps [v] to [z = 2m + sign] with [m = v lxor (v asr 62)], the
     magnitude folded to a non-negative int.  [z] reaches 2^63 - 1 (for
     [min_int]), one bit past a native int, so it is never built: its
     first 7-bit group is [(m lsl 1) lor sign] and the rest, [z lsr 7],
     is [m lsr 6], written as a plain varint.  Byte for byte the LEB128
     of the 64-bit zigzag. *)
  let zigzag t v =
    let m = v lxor (v asr 62) in
    let first = ((m lsl 1) lor ((v asr 62) land 1)) land 0x7F in
    let rest = m lsr 6 in
    if rest = 0 then u8 t first
    else begin
      u8 t (0x80 lor first);
      unsigned t rest
    end

  let bool t b = u8 t (if b then 1 else 0)

  (* The IEEE bits, least significant byte first. *)
  let float t f =
    if not t.counting then begin
      reserve t 8;
      Bytes.set_int64_le t.buf t.pos (Int64.bits_of_float f)
    end;
    t.pos <- t.pos + 8

  let string t s =
    let n = String.length s in
    unsigned t n;
    if not t.counting then begin
      reserve t n;
      Bytes.unsafe_blit_string s 0 t.buf t.pos n
    end;
    t.pos <- t.pos + n

  let option t f = function
    | None -> bool t false
    | Some v ->
      bool t true;
      f t v

  (* A top-level loop rather than [List.iter (f t)], whose partial
     application is a closure per call. *)
  let rec elements t f = function
    | [] -> ()
    | x :: rest ->
      f t x;
      elements t f rest

  let list t f l =
    unsigned t (List.length l);
    elements t f l

  (* Length-prefixed sub-message, written straight into the parent sink
     in one pass.  The body goes after a one-byte slot for its length
     prefix, enough for a body under 128 bytes; a longer body is then
     moved up to widen the slot.  The final layout is never shorter than
     the one written, so an exact-size buffer has room for both. *)
  let nested t f v =
    let start = t.pos in
    u8 t 0;
    f t v;
    let n = t.pos - start - 1 in
    let k = varint_len n in
    if not t.counting then begin
      if k > 1 then begin
        reserve t (k - 1);
        Bytes.blit t.buf (start + 1) t.buf (start + k) n
      end;
      t.pos <- start;
      put_varint t n
    end;
    t.pos <- start + k + n

  (* The one counting sink behind [size] and [to_string], so sizing
     allocates no writer.  A body may itself encode a sub-value with
     [to_string] (an opaque payload built inside a [write]), so every
     pass saves and restores the count it interrupts.  A body that raises
     (a negative [varint]) aborts every pass the exception leaves; the
     next pass starts from zero regardless. *)
  let shared = { buf = Bytes.empty; pos = 0; counting = true }

  let size f v =
    let saved = shared.pos in
    shared.pos <- 0;
    f shared v;
    let n = shared.pos in
    shared.pos <- saved;
    n

  (* The one exact-size sink behind [to_string], so a one-shot encode
     allocates its result alone.  A pass saves the buffer and position
     of the pass it interrupts (a body encoding an opaque payload) and
     restores them when it returns.  A body that raises leaves the sink
     to the next pass, which starts from a fresh buffer regardless. *)
  let sink = { buf = Bytes.empty; pos = 0; counting = false }

  let to_string f v =
    let n = size f v in
    let saved_buf = sink.buf and saved_pos = sink.pos in
    let buf = Bytes.create n in
    sink.buf <- buf;
    sink.pos <- 0;
    f sink v;
    let written = sink.pos in
    sink.buf <- saved_buf;
    sink.pos <- saved_pos;
    if written <> n then
      invalid_arg "Codec.Writer.to_string: non-deterministic writer";
    Bytes.unsafe_to_string buf

  let contents t =
    if t.counting then invalid_arg "Codec.Writer.contents: counting sink";
    Bytes.sub_string t.buf 0 t.pos
end

module Reader = struct
  (* [limit] bounds the readable window: [framed] narrows the reader to
     a nested frame of the same backing string instead of copying the
     frame out with String.sub. *)
  type t = { data : string; mutable pos : int; mutable limit : int }

  let of_string data = { data; pos = 0; limit = String.length data }

  let u8 t =
    if t.pos >= t.limit then raise Truncated;
    let v = Char.code (String.unsafe_get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  (* The 7-bit groups of a LEB128 number, least significant first, at
     most up to the one at bit [last_shift]; a continuation past it is
     an encoding no writer produces. *)
  let groups t last_shift =
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !shift > last_shift then raise Truncated;
      let b = u8 t in
      acc := !acc lor ((b land 0x7F) lsl !shift);
      shift := !shift + 7;
      more := b land 0x80 <> 0
    done;
    !acc

  (* At most nine groups.  A ninth byte >= 0x40 sets the sign bit of the
     63-bit int; the writer never produces one, so a negative result is
     malformed input, not a value. *)
  let varint t =
    let v = groups t 56 in
    if v < 0 then raise Truncated;
    v

  (* The inverse of [Writer.zigzag]: the first byte carries the sign bit
     and the low six bits of [m], the at most eight groups after it the
     rest of [m].  Nine bytes hold any 63-bit zigzag, so a tenth is
     malformed input. *)
  let zigzag t =
    let b = u8 t in
    let m =
      if b land 0x80 = 0 then b lsr 1
      else ((b land 0x7F) lsr 1) lor (groups t 49 lsl 6)
    in
    m lxor -(b land 1)

  let bool t = u8 t <> 0

  let float t =
    if t.limit - t.pos < 8 then raise Truncated;
    let bits = String.get_int64_le t.data t.pos in
    t.pos <- t.pos + 8;
    Int64.float_of_bits bits

  let string t =
    let n = varint t in
    if n > t.limit - t.pos then raise Truncated;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  (* Narrow [t] to the frame, run [f], then skip whatever [f] left
     unread and widen [t] back. *)
  let framed t f =
    let n = varint t in
    if n > t.limit - t.pos then raise Truncated;
    let limit = t.limit and stop = t.pos + n in
    t.limit <- stop;
    let v = f t in
    t.pos <- stop;
    t.limit <- limit;
    v

  let option t f = if bool t then Some (f t) else None

  (* In order, without [List.init]'s per-call closure. *)
  let[@tail_mod_cons] rec elements t f n =
    if n = 0 then []
    else
      let x = f t in
      x :: elements t f (n - 1)

  let list t f = elements t f (varint t)
  let at_end t = t.pos >= t.limit
end
