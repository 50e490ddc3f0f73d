(* growable float array; exact histograms keep every observation so that
   exact order statistics stay available (bench/test series are small:
   spans, group sizes, per-query row counts).  Serving paths that run
   indefinitely use the bounded variant instead ([observe_bounded]),
   which sketches into a fixed-size [Hdr] at a documented error bound. *)
type series = { mutable data : float array; mutable len : int }

(* a histogram's kind is fixed by whichever observe call creates it;
   later observations of either flavour record into the existing kind *)
type hist = Exact of series | Bounded of Hdr.t

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
  }

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let push s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let observe t name v =
  match Hashtbl.find_opt t.histograms name with
  | Some (Exact s) -> push s v
  | Some (Bounded h) -> Hdr.observe h v
  | None ->
    let s = { data = Array.make 16 0.0; len = 0 } in
    Hashtbl.replace t.histograms name (Exact s);
    push s v

let observe_bounded t ?alpha name v =
  match Hashtbl.find_opt t.histograms name with
  | Some (Bounded h) -> Hdr.observe h v
  | Some (Exact s) -> push s v
  | None ->
    let h = Hdr.create ?alpha () in
    Hashtbl.replace t.histograms name (Bounded h);
    Hdr.observe h v

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> Some !r | None -> None

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* nearest-rank percentile over a sorted array *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  sorted.(Stdlib.min (n - 1) (Stdlib.max 0 (rank - 1)))

let summarize_series s =
  if s.len = 0 then None
  else begin
    let sorted = Array.sub s.data 0 s.len in
    Array.sort Float.compare sorted;
    let sum = Array.fold_left ( +. ) 0.0 sorted in
    Some
      {
        count = s.len;
        sum;
        min = sorted.(0);
        max = sorted.(s.len - 1);
        mean = sum /. float_of_int s.len;
        p50 = percentile sorted 0.5;
        p90 = percentile sorted 0.9;
        p99 = percentile sorted 0.99;
      }
  end

let summarize_hdr h =
  if Hdr.count h = 0 then None
  else
    Some
      {
        count = Hdr.count h;
        sum = Hdr.sum h;
        min = Hdr.min_value h;
        max = Hdr.max_value h;
        mean = Hdr.sum h /. float_of_int (Hdr.count h);
        p50 = Hdr.quantile h 0.5;
        p90 = Hdr.quantile h 0.9;
        p99 = Hdr.quantile h 0.99;
      }

let summarize = function
  | Exact s -> summarize_series s
  | Bounded h -> summarize_hdr h

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> summarize h
  | None -> None

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms t =
  Hashtbl.fold
    (fun name s acc ->
      match summarize s with Some h -> (name, h) :: acc | None -> acc)
    t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge ~into src =
  (* name-sorted iteration so the merged registry's contents never depend
     on hashtable iteration order *)
  List.iter (fun (name, v) -> incr into ~by:v name) (counters src);
  List.iter (fun (name, v) -> set_gauge into name v) (gauges src);
  let hists =
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) src.histograms []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, h) ->
      match h with
      | Exact s ->
        for i = 0 to s.len - 1 do
          observe into name s.data.(i)
        done
      | Bounded src_h -> (
        match Hashtbl.find_opt into.histograms name with
        | Some (Bounded into_h) when Hdr.alpha into_h = Hdr.alpha src_h ->
          Hdr.merge ~into:into_h src_h
        | Some _ ->
          (* kind or alpha mismatch: fold bucket representatives in *)
          Hdr.iter src_h (fun v c ->
              for _ = 1 to c do
                observe into name v
              done)
        | None ->
          let fresh = Hdr.create ~alpha:(Hdr.alpha src_h) () in
          Hdr.merge ~into:fresh src_h;
          Hashtbl.replace into.histograms name (Bounded fresh)))
    hists

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histograms;
  Hashtbl.reset t.gauges

let render t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" name v))
    (counters t);
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "%-40s %g (gauge)\n" name v))
    (gauges t);
  List.iter
    (fun (name, h) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-40s count=%d sum=%g min=%g mean=%g p50=%g p90=%g p99=%g max=%g\n"
           name h.count h.sum h.min h.mean h.p50 h.p90 h.p99 h.max))
    (histograms t);
  Buffer.contents buf

(* --- OpenMetrics text exposition --- *)

let om_name name =
  let mangled =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  if mangled = "" then "pcqe_unnamed" else "pcqe_" ^ mangled

let om_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let to_openmetrics t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s counter\n%s_total %d\n" n n v))
    (counters t);
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (om_float v)))
    (gauges t);
  List.iter
    (fun (name, h) ->
      let n = om_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%s\"} %s\n" n q (om_float v)))
        [ ("0.5", h.p50); ("0.9", h.p90); ("0.99", h.p99) ];
      Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (om_float h.sum));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n h.count))
    (histograms t);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
