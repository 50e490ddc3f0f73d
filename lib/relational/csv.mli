(** CSV import/export for relations, with an optional confidence column.

    Format: the first line is the header [name:type,...]; subsequent lines
    are rows.  Fields containing commas, quotes or newlines are
    double-quoted with embedded quotes doubled (RFC-4180 style).  A column
    literally named [__confidence] (of type real) is not stored in the
    relation; it sets each tuple's confidence instead (default
    [default_conf] when the column is absent). *)

val parse_line : string -> string list
(** Split one CSV record into raw fields (quotes resolved).  Exposed for
    tests. *)

val render_line : string list -> string
(** Inverse of {!parse_line}. *)

val relation_of_string :
  name:string -> ?default_conf:float -> string -> (Relation.t * (Lineage.Tid.t * float) list, string) result
(** [relation_of_string ~name csv] parses a full CSV document into a
    relation plus the per-tuple confidences to record in the database.
    [default_conf] defaults to [1.0]. *)

val load_into :
  Database.t -> name:string -> ?default_conf:float -> string -> (Database.t, string) result
(** [load_into db ~name csv] parses and registers the relation and its
    confidences into [db] with one {!Database.bulk_load}.  It parses
    line by line, independently of {!load_string_bulk}'s chunked parser,
    and gives the same result. *)

val load_file :
  Database.t -> name:string -> ?default_conf:float -> string -> (Database.t, string) result
(** [load_file db ~name path] loads [path] streaming: one pass over the
    channel, no whole-file string.  Same result as {!load_into} on the
    file's contents (blank lines are skipped without consuming a line
    number, exactly as the string path does), registered with one
    {!Database.bulk_load}. *)

val load_string_bulk :
  Database.t ->
  name:string ->
  ?default_conf:float ->
  ?jobs:int ->
  string ->
  (Database.t, string) result
(** Parallel bulk ingest.  The body is split into chunks at record
    boundaries and parsed over a domain pool ([jobs] resolved by
    {!Exec.resolve_jobs}); tuple ids are assigned in file order by
    prefix-summing chunk row counts, so the loaded relation — ids,
    ordering, confidences — is identical to what {!load_into} produces
    for any jobs count.  On malformed input the reported error is the
    one {!load_into} would give (lowest line number wins).  Registration
    goes through {!Database.bulk_load}: one structural and one
    confidence epoch bump for the whole load instead of per row, with one
    truthful change-log entry listing every loaded tuple. *)

val load_file_bulk :
  Database.t ->
  name:string ->
  ?default_conf:float ->
  ?jobs:int ->
  string ->
  (Database.t, string) result
(** [load_file_bulk db ~name path] reads [path] once and delegates to
    {!load_string_bulk}. *)

val to_string : Database.t -> Relation.t -> string
(** Export a relation (with its [__confidence] column) as CSV. *)
