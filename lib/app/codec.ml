exception Truncated

module Writer = struct
  (* A writer is an output sink: either a real byte buffer or a pure
     byte counter.  Every codec expresses its wire format once as a
     [write] function over this type; [encode] runs it against a buffer
     sink and [size] against a counting sink, so the two can never
     drift and sizing allocates nothing. *)
  type sink = Buf of Buffer.t | Count

  type t = { sink : sink; mutable written : int }

  let create ?(size_hint = 64) () =
    { sink = Buf (Buffer.create size_hint); written = 0 }

  let counter () = { sink = Count; written = 0 }
  let written t = t.written

  (* Buffer.add_uint8 truncates to the low byte rather than raising, so
     the writer stays total (rsmr-flow) — the mask keeps that visible. *)
  let u8 t v =
    t.written <- t.written + 1;
    match t.sink with
    | Buf b -> Buffer.add_uint8 b (v land 0xFF)
    | Count -> ()

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    let rec go v =
      if v < 0x80 then u8 t v
      else begin
        u8 t (0x80 lor (v land 0x7F));
        go (v lsr 7)
      end
    in
    go v

  (* Zigzag over Int64 so the full native-int range roundtrips, including
     min_int, where the shift-based trick overflows. *)
  let zigzag t v =
    let z =
      Int64.logxor
        (Int64.shift_left (Int64.of_int v) 1)
        (Int64.shift_right (Int64.of_int v) 63)
    in
    let rec go z =
      let low = Int64.to_int (Int64.logand z 0x7FL) in
      let rest = Int64.shift_right_logical z 7 in
      if Int64.equal rest 0L then u8 t low
      else begin
        u8 t (0x80 lor low);
        go rest
      end
    in
    go z
  let bool t b = u8 t (if b then 1 else 0)

  let float t f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      u8 t (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
    done

  let string t s =
    varint t (String.length s);
    t.written <- t.written + String.length s;
    match t.sink with
    | Buf b -> Buffer.add_string b s
    | Count -> ()

  let option t f = function
    | None -> bool t false
    | Some v ->
      bool t true;
      f t v

  let list t f l =
    varint t (List.length l);
    List.iter (f t) l

  (* Length-prefixed sub-message, written straight into the parent sink.
     The prefix needs the body length up front, so the body is measured
     with a counting pass first; against a buffer sink the body then runs
     a second time for real, against a counting sink the measurement is
     the whole job.  Either way no intermediate string is built, unlike
     the old [string w (Sub.encode v)] idiom which serialized the
     sub-message into a fresh buffer and copied it. *)
  let nested t f v =
    let c = { sink = Count; written = 0 } in
    f c v;
    varint t c.written;
    match t.sink with
    | Buf _ ->
      let before = t.written in
      f t v;
      if t.written - before <> c.written then
        invalid_arg "Codec.Writer.nested: non-deterministic sub-writer"
    | Count -> t.written <- t.written + c.written

  let contents t =
    match t.sink with
    | Buf b -> Buffer.contents b
    | Count -> invalid_arg "Codec.Writer.contents: counting sink"

end

module Reader = struct
  (* [limit] bounds the readable window so a nested [view] shares the
     parent's backing string instead of copying it out with String.sub. *)
  type t = { data : string; mutable pos : int; limit : int }

  let of_string data = { data; pos = 0; limit = String.length data }

  let u8 t =
    if t.pos >= t.limit then raise Truncated;
    let v = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    v

  (* A 9-byte varint whose last byte is >= 0x40 sets the sign bit of the
     63-bit int.  The writer never produces one, so a negative result is
     malformed input, not a value. *)
  let varint t =
    let rec go shift acc =
      if shift > 62 then raise Truncated;
      let b = u8 t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc
      else if acc < 0 then raise Truncated
      else acc
    in
    go 0 0

  let zigzag t =
    let rec go shift acc =
      if shift > 70 then raise Truncated;
      let b = u8 t in
      let acc =
        Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7F)) shift)
      in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    let z = go 0 0L in
    Int64.to_int
      (Int64.logxor
         (Int64.shift_right_logical z 1)
         (Int64.neg (Int64.logand z 1L)))

  let bool t = u8 t <> 0

  let float t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 t)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let string t =
    let n = varint t in
    if n > t.limit - t.pos then raise Truncated;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  (* Zero-copy counterpart of [string]: a length-prefixed sub-reader over
     the same backing bytes.  The parent's position skips the window, so
     parent and view never race over the same bytes. *)
  let view t =
    let n = varint t in
    if n > t.limit - t.pos then raise Truncated;
    let v = { data = t.data; pos = t.pos; limit = t.pos + n } in
    t.pos <- t.pos + n;
    v

  let option t f = if bool t then Some (f t) else None

  let list t f =
    let n = varint t in
    List.init n (fun _ -> f t)

  let at_end t = t.pos >= t.limit
end
