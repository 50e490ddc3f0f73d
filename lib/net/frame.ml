let version = 1
let header_len = 12
let max_payload = 8 * 1024 * 1024
let magic0 = 'P'
let magic1 = 'Q'

(* Slice-by-8 CRC-32 (IEEE, reflected) on native ints.  [crc_tables] is
   eight 256-entry tables laid end to end: table 0 is the classic
   byte-at-a-time table, and table k advances a table-(k-1) entry by one
   more zero byte, so one step folds eight input bytes. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* every index below is masked to 0..255 plus a table offset, so it is
   always inside [crc_tables] *)
let tbl k i = Array.unsafe_get crc_tables ((k lsl 8) lor i)

let u32_le s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let crc32_range s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Frame.crc32_range";
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let a = !c lxor u32_le s !i in
    let b = u32_le s (!i + 4) in
    c :=
      tbl 7 (a land 0xff)
      lxor tbl 6 ((a lsr 8) land 0xff)
      lxor tbl 5 ((a lsr 16) land 0xff)
      lxor tbl 4 (a lsr 24)
      lxor tbl 3 (b land 0xff)
      lxor tbl 2 ((b lsr 8) land 0xff)
      lxor tbl 1 ((b lsr 16) land 0xff)
      lxor tbl 0 (b lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := tbl 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = Int32.of_int (crc32_range s 0 (String.length s))

type error =
  | Closed
  | Torn of string
  | Bad_magic
  | Bad_version of int
  | Too_large of int
  | Bad_checksum

let error_to_string = function
  | Closed -> "connection closed"
  | Torn what -> Printf.sprintf "torn frame: short read in %s" what
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Too_large n -> Printf.sprintf "frame payload too large (%d bytes)" n
  | Bad_checksum -> "payload checksum mismatch"

(* --- the frame buffer ---------------------------------------------- *)

type buf = { mutable bytes : Bytes.t; mutable len : int }

let initial_capacity = 4096

(* [shrink] drops storage grown past this for an outsized frame *)
let keep_capacity = 256 * 1024

let create ?(capacity = initial_capacity) () =
  { bytes = Bytes.create (max capacity header_len); len = 0 }

let length b = b.len
let bytes b = b.bytes
let capacity b = Bytes.length b.bytes
let contents b = Bytes.sub_string b.bytes 0 b.len

let shrink b =
  if Bytes.length b.bytes > keep_capacity then begin
    b.bytes <- Bytes.create initial_capacity;
    b.len <- 0
  end

(* make room for [n] more bytes after [b.len]: at least double, so
   appends stay amortised linear, and exactly enough for one big read *)
let ensure b n =
  let need = b.len + n in
  if need > Bytes.length b.bytes then begin
    let grown = Bytes.create (max need (2 * Bytes.length b.bytes)) in
    Bytes.blit b.bytes 0 grown 0 b.len;
    b.bytes <- grown
  end

let add_char b c =
  ensure b 1;
  Bytes.unsafe_set b.bytes b.len c;
  b.len <- b.len + 1

let add_u32 b v =
  ensure b 4;
  Bytes.set_int32_be b.bytes b.len (Int32.of_int v);
  b.len <- b.len + 4

let add_i64 b v =
  ensure b 8;
  Bytes.set_int64_be b.bytes b.len v;
  b.len <- b.len + 8

let add_string b s =
  let n = String.length s in
  ensure b n;
  Bytes.unsafe_blit_string s 0 b.bytes b.len n;
  b.len <- b.len + n

let add_buffer b src =
  let n = Buffer.length src in
  ensure b n;
  Buffer.blit src 0 b.bytes b.len n;
  b.len <- b.len + n

let set_u32 b pos v = Bytes.set_int32_be b.bytes pos (Int32.of_int v)

let start b =
  b.len <- 0;
  ensure b header_len;
  b.len <- header_len

let finish b ~typ =
  if typ < 0 || typ > 255 then invalid_arg "Frame.finish: type out of range";
  let n = b.len - header_len in
  if n < 0 then invalid_arg "Frame.finish: frame not started";
  if n > max_payload then invalid_arg "Frame.finish: payload too large";
  Bytes.set b.bytes 0 magic0;
  Bytes.set b.bytes 1 magic1;
  Bytes.set b.bytes 2 (Char.chr version);
  Bytes.set b.bytes 3 (Char.chr typ);
  set_u32 b 4 n;
  set_u32 b 8 (crc32_range (Bytes.unsafe_to_string b.bytes) header_len n)

let encode ~typ payload =
  let b = create ~capacity:(header_len + String.length payload) () in
  start b;
  add_string b payload;
  finish b ~typ;
  contents b

(* --- reading ------------------------------------------------------- *)

(* Read exactly [len] bytes to [off]; Ok true on success, Ok false on
   immediate clean EOF, Error on EOF mid-way. *)
let really_read recv buf off len what =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = recv buf (off + !got) (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  if !got = len then Ok true
  else if !got = 0 then Ok false
  else Error (Torn what)

let get_u32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

let read_into b recv =
  b.len <- 0;
  ensure b header_len;
  match really_read recv b.bytes 0 header_len "header" with
  | Error e -> Error e
  | Ok false -> Error Closed
  | Ok true ->
    let hdr = Bytes.unsafe_to_string b.bytes in
    if hdr.[0] <> magic0 || hdr.[1] <> magic1 then Error Bad_magic
    else if Char.code hdr.[2] <> version then Error (Bad_version (Char.code hdr.[2]))
    else begin
      let typ = Char.code hdr.[3] in
      let len = get_u32 hdr 4 in
      let crc = get_u32 hdr 8 in
      if len > max_payload then Error (Too_large len)
      else begin
        b.len <- header_len;
        ensure b len;
        match really_read recv b.bytes header_len len "payload" with
        | Error e -> Error e
        | Ok false when len > 0 -> Error (Torn "payload")
        | Ok _ ->
          b.len <- header_len + len;
          if crc32_range (Bytes.unsafe_to_string b.bytes) header_len len <> crc then
            Error Bad_checksum
          else Ok typ
      end
    end

let read recv =
  let b = create ~capacity:header_len () in
  Result.map
    (fun typ -> (typ, Bytes.sub_string b.bytes header_len (b.len - header_len)))
    (read_into b recv)

let decode s =
  let pos = ref 0 in
  let recv buf off len =
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n
  in
  read recv
