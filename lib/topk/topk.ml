(* Bounded-heap selection.  The heap holds the k best indices seen so
   far, ordered so its root is the *worst* of the kept set: an incoming
   index either beats the root (replace + sift down) or is discarded in
   O(1).  "Worse" means later under [cmp], or tied and later in the
   input — exactly the total order a stable sort induces, so popping the
   heap worst-first reproduces stable-sort-then-take-k output bit for
   bit. *)
let indices ~k n cmp =
  let cap = max 0 (min k n) in
  let worse i j =
    let c = cmp i j in
    c > 0 || (c = 0 && i > j)
  in
  let heap = Array.make cap 0 in
  let swap a b =
    let t = heap.(a) in
    heap.(a) <- heap.(b);
    heap.(b) <- t
  in
  let rec sift_up j =
    let parent = (j - 1) / 2 in
    if j > 0 && worse heap.(j) heap.(parent) then begin
      swap j parent;
      sift_up parent
    end
  in
  let rec sift_down size j =
    let l = (2 * j) + 1 and r = (2 * j) + 2 in
    let w = if l < size && worse heap.(l) heap.(j) then l else j in
    let w = if r < size && worse heap.(r) heap.(w) then r else w in
    if w <> j then begin
      swap j w;
      sift_down size w
    end
  in
  for i = 0 to n - 1 do
    if i < cap then begin
      heap.(i) <- i;
      sift_up i
    end
    else if cap > 0 && worse heap.(0) i then begin
      heap.(0) <- i;
      sift_down cap 0
    end
  done;
  let out = Array.make cap 0 in
  for size = cap downto 1 do
    out.(size - 1) <- heap.(0);
    heap.(0) <- heap.(size - 1);
    sift_down (size - 1) 0
  done;
  out

let by_score_arr ~k score xs =
  if k <= 0 then []
  else
    (* each element is scored once *)
    let scores = Array.map score xs in
    (* descending: a lower score sorts later *)
    let cmp i j = Float.compare scores.(j) scores.(i) in
    Array.fold_right
      (fun i acc -> xs.(i) :: acc)
      (indices ~k (Array.length xs) cmp)
      []

let by_score ~k score xs = by_score_arr ~k score (Array.of_list xs)
