(** Socket reads and writes that survive signals.

    A signal delivered while a thread blocks in [read] or [write] makes
    the call fail with [EINTR] before any byte moved; the call is simply
    made again.  Every other error propagates. *)

val retry_eintr : (unit -> 'a) -> 'a
(** [retry_eintr f] calls [f ()] until it does not raise
    [Unix.Unix_error (EINTR, _, _)]. *)

val recv : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read], retried on [EINTR]; 0 means end of stream. *)

val send : Unix.file_descr -> bytes -> int -> unit
(** [send fd buf len] writes the first [len] bytes of [buf], one
    [Unix.single_write] at a time, each retried on [EINTR]. *)
