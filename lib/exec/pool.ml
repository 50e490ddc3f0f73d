(* Fixed-size domain pool.

   Workers block on a mutex/condition-protected queue of thunks.  Fork-join
   combinators push one claiming loop per helper worker and run the same
   loop on the calling domain, so a pool is never required to have idle
   workers for progress: the caller alone can finish the whole batch (and
   on a single-core host usually does).  Chunk indices are claimed from an
   atomic counter; outputs land in per-index slots, which keeps results a
   pure function of the inputs regardless of scheduling. *)

type task = unit -> unit

type t = {
  jobs : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.closed then None
    else begin
      Condition.wait t.has_work t.mutex;
      next ()
    end
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some task ->
    (* claiming loops catch their own exceptions; this belt-and-braces
       handler keeps a worker alive no matter what was submitted *)
    (try task () with _ -> ());
    worker_loop t

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let t =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  if not t.closed then begin
    t.closed <- true;
    t.workers <- [];
    Condition.broadcast t.has_work
  end;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let submit t task =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Exec.Pool: submit to a shut-down pool"
  end;
  Queue.push task t.queue;
  Condition.signal t.has_work;
  Mutex.unlock t.mutex

let run_chunks t ~chunks f =
  if chunks > 0 then begin
    (* chaos-testable injection point, modelling a worker task blowing
       up: chunk [i] is hit [base + i] of the site, reserved up front, so
       which chunks fail is a function of the plan alone, never of which
       domain reached the site first.  A no-op unless a
       [Resilience.Fault] plan is armed. *)
    let chunk_fault =
      Resilience.Fault.reserve Resilience.Fault.site_pool_chunk chunks
    in
    if t.jobs = 1 || chunks = 1 then
      for i = 0 to chunks - 1 do
        chunk_fault i;
        f i
      done
    else begin
      let next = Atomic.make 0 in
      let pending = Atomic.make chunks in
      let finished = Mutex.create () in
      let all_done = Condition.create () in
      (* lowest-indexed failure wins, so the re-raised exception does not
         depend on which domain tripped first *)
      let failure : (int * exn) option Atomic.t = Atomic.make None in
      let record i e =
        let rec cas () =
          let cur = Atomic.get failure in
          let better = match cur with None -> true | Some (j, _) -> i < j in
          if better && not (Atomic.compare_and_set failure cur (Some (i, e)))
          then cas ()
        in
        cas ()
      in
      let finish_one () =
        if Atomic.fetch_and_add pending (-1) = 1 then begin
          Mutex.lock finished;
          Condition.broadcast all_done;
          Mutex.unlock finished
        end
      in
      let rec claim () =
        let i = Atomic.fetch_and_add next 1 in
        if i < chunks then begin
          (try
             chunk_fault i;
             f i
           with e -> record i e);
          finish_one ();
          claim ()
        end
      in
      for _ = 2 to min t.jobs chunks do
        submit t claim
      done;
      claim ();
      Mutex.lock finished;
      while Atomic.get pending > 0 do
        Condition.wait all_done finished
      done;
      Mutex.unlock finished;
      match Atomic.get failure with Some (_, e) -> raise e | None -> ()
    end
  end

let default_chunk t n = max 1 ((n + (4 * t.jobs) - 1) / (4 * t.jobs))

let mapi_array ?chunk t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.jobs = 1 then Array.mapi f arr
  else begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk t n
    in
    let slots = Array.make n None in
    let chunks = (n + chunk - 1) / chunk in
    run_chunks t ~chunks (fun ci ->
        let lo = ci * chunk in
        let hi = min n (lo + chunk) in
        for i = lo to hi - 1 do
          slots.(i) <- Some (f i arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) slots
  end

let map_array ?chunk t f arr = mapi_array ?chunk t (fun _ x -> f x) arr

let map_list ?chunk t f xs =
  Array.to_list (map_array ?chunk t f (Array.of_list xs))

let parallel_for ?chunk t ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then begin
    if t.jobs = 1 then
      for i = lo to hi - 1 do
        f i
      done
    else begin
      let chunk =
        match chunk with Some c -> max 1 c | None -> default_chunk t n
      in
      let chunks = (n + chunk - 1) / chunk in
      run_chunks t ~chunks (fun ci ->
          let first = lo + (ci * chunk) in
          let last = min hi (first + chunk) - 1 in
          for i = first to last do
            f i
          done)
    end
  end

let fork_join t fa fb =
  if t.jobs = 1 then begin
    let a = fa () in
    let b = fb () in
    (a, b)
  end
  else begin
    let ra = ref None and rb = ref None in
    run_chunks t ~chunks:2 (fun i ->
        if i = 0 then ra := Some (fa ()) else rb := Some (fb ()));
    match (!ra, !rb) with
    | Some a, Some b -> (a, b)
    | _ -> assert false
  end
