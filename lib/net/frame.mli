(** Length-framed, checksummed wire frames.

    Every message on the wire is one frame:

    {v
      offset  size  field
      0       2     magic "PQ"
      2       1     protocol version (currently 1)
      3       1     frame type (opaque to this module; see Wire)
      4       4     payload length, big-endian
      8       4     CRC-32 of the payload, big-endian
      12      n     payload
    v}

    The module is pure over caller-supplied read functions so it can be
    unit-tested without sockets.  A frame is either read whole or
    rejected with a typed error: torn (short) reads, bad magic, an
    unsupported version, an oversized length, and checksum mismatches
    are all distinguished, and none of them raises.

    {b One copy.}  A frame lives in a caller-owned growable {!buf}.  To
    send, {!start} reserves the header, the payload is written in place
    (see {!Wire}), and {!finish} backpatches the length and CRC; the
    bytes then go to the socket straight from the buffer.  To receive,
    {!read_into} fills the buffer and checks the CRC on the received
    bytes where they lie; the decoder reads them from there.  The server
    and client each keep one buffer per connection and reuse it for
    every request and response.  {!encode}, {!read} and {!decode} are
    string-in / string-out wrappers over this same path. *)

val version : int
val header_len : int

val max_payload : int
(** Hard cap on payload length (8 MiB).  Larger declared lengths are
    rejected before any payload is read, so a corrupt length field
    cannot make the server buffer unbounded data. *)

val crc32 : string -> int32
(** Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320). *)

val crc32_range : string -> int -> int -> int
(** [crc32_range s off len] is the CRC-32 of [String.sub s off len] as a
    native int in [0, 2{^32}), computed in place eight bytes a step
    (slice-by-8).  @raise Invalid_argument on a range outside [s]. *)

type error =
  | Closed  (** clean EOF at a frame boundary *)
  | Torn of string  (** EOF mid-frame: a short read *)
  | Bad_magic
  | Bad_version of int
  | Too_large of int
  | Bad_checksum

val error_to_string : error -> string

(** {1 Frame buffers} *)

type buf
(** A growable byte buffer that holds one frame (or, before {!start},
    plain bytes). *)

val create : ?capacity:int -> unit -> buf
(** An empty buffer; [capacity] defaults to 4 KiB. *)

val length : buf -> int
(** Bytes written so far, header included. *)

val bytes : buf -> Bytes.t
(** The storage; the first {!length} bytes are valid.  Any write to the
    buffer may replace it. *)

val capacity : buf -> int

val contents : buf -> string
(** A copy of the first {!length} bytes. *)

val shrink : buf -> unit
(** If an outsized frame grew the buffer past a fixed size (256 KiB),
    drop its storage for a fresh 4 KiB one, so an idle connection does
    not pin it.  Forgets the contents. *)

val add_char : buf -> char -> unit
val add_u32 : buf -> int -> unit  (** big-endian, low 32 bits *)

val add_i64 : buf -> int64 -> unit  (** big-endian *)

val add_string : buf -> string -> unit
val add_buffer : buf -> Buffer.t -> unit

val set_u32 : buf -> int -> int -> unit
(** [set_u32 b pos v] overwrites 4 already-written bytes at [pos]: the
    backpatch for a length prefix reserved with [add_u32 b 0]. *)

val start : buf -> unit
(** Empty the buffer and reserve the frame header; the payload follows. *)

val finish : buf -> typ:int -> unit
(** Fill in the header of the frame {!start}ed in [b]: magic, version,
    [typ], the payload length and its CRC.  [bytes b] up to [length b]
    is then the complete frame.
    @raise Invalid_argument if [typ] is outside 0..255 or the payload
    exceeds {!max_payload}. *)

val read_into :
  buf -> (bytes -> int -> int -> int) -> (int, error) result
(** [read_into b recv] pulls one frame into [b] using [recv buf off len]
    (a [Unix.read]-style function returning 0 at EOF) and returns its
    type.  On [Ok] the payload is [bytes b] from {!header_len} to
    [length b], already checked against its CRC.  Exceptions from
    [recv] (e.g. timeouts) pass through to the caller. *)

(** {1 String wrappers} *)

val encode : typ:int -> string -> string
(** [encode ~typ payload] is the complete frame as bytes on the wire.
    @raise Invalid_argument if [typ] is outside 0..255 or the payload
    exceeds {!max_payload}. *)

val read :
  (bytes -> int -> int -> int) -> (int * string, error) result
(** {!read_into} a fresh buffer; returns [(typ, payload)]. *)

val decode : string -> (int * string, error) result
(** [decode s] parses exactly one frame from [s] (trailing garbage is
    ignored); convenience for tests. *)
