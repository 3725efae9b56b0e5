(* The domain pool and the per-domain trace state are the only modules
   allowed to own concurrency primitives (DESIGN.md sections 6-7). *)
[@@@lint.allow "c1-concurrency"]

(* A mutex-guarded process-global pool: shared by design and touched
   only at handle creation / aggregation time. *)
[@@@lint.allow "c2-global-mut"]

let max_jobs = 64

(* per-map sweep accounting: one [parallel.maps] per call at any job
   count; each worker of a fan-out times its own shard (recorded into
   its domain's trace state), the caller derives the imbalance *)
let c_maps = Trace.counter "parallel.maps"
let t_busy = Trace.timer "parallel.worker_busy"
let g_imbalance = Trace.gauge "parallel.imbalance_permille"
let sp_shard = Trace.span "parallel.shard"

(* per-worker shard wall-time distribution: the spread (p50 vs p99)
   is the straggler signal the imbalance gauge only summarizes *)
let h_shard = Trace.hist "parallel.shard_seconds"

(* A deployment setting, read where the job count is resolved; unset
   or empty means "auto", anything but a positive integer is an
   error. *)
let env_jobs () =
  match Option.map String.trim (Sys.getenv_opt "FLEXILE_JOBS") with
  | None | Some "" -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> Some (min j max_jobs)
      | _ ->
          invalid_arg
            (Printf.sprintf "FLEXILE_JOBS=%S is not a positive integer" v))
[@@lint.allow "d1-nondet"]

let default_jobs () =
  match env_jobs () with
  | Some j -> j
  | None -> max 1 (min max_jobs (Domain.recommended_domain_count ()))

let resolve_jobs = function
  | None | Some 0 -> default_jobs ()
  | Some j -> max 1 (min max_jobs j)

(* A fixed set of worker domains, reused across [map] calls: it
   broadcasts one task closure per call; worker [w] runs [task w].  The
   mutex protocol around [pending] establishes the happens-before edges
   that make the per-slot result writes of the workers visible to the
   caller. *)
type pool = {
  njobs : int;
  mutable workers : unit Domain.t list;  (* njobs - 1 domains *)
  m : Mutex.t;
  work_ready : Condition.t;
  work_finished : Condition.t;
  mutable task : (int -> unit) option;
  mutable generation : int;
  mutable next_slot : int;  (* next worker slot to hand out (1-based) *)
  mutable completed : int;  (* workers done with the current task *)
  mutable stop : bool;
}

let worker_loop pool =
  let gen = ref 0 and live = ref true in
  while !live do
    Mutex.lock pool.m;
    while (not pool.stop) && pool.generation = !gen do
      Condition.wait pool.work_ready pool.m
    done;
    if pool.stop then begin
      Mutex.unlock pool.m;
      live := false
    end
    else begin
      gen := pool.generation;
      let task = Option.get pool.task in
      (* each worker picks up a generation exactly once, so the slots
         handed out are exactly 1 .. njobs-1 *)
      let slot = pool.next_slot in
      pool.next_slot <- slot + 1;
      Mutex.unlock pool.m;
      (* [map] wraps tasks so they never raise *)
      task slot;
      Mutex.lock pool.m;
      pool.completed <- pool.completed + 1;
      if pool.completed >= pool.njobs - 1 then
        Condition.broadcast pool.work_finished;
      Mutex.unlock pool.m
    end
  done

let create ~jobs:j =
  let njobs = max 1 (min max_jobs j) in
  let pool =
    {
      njobs;
      workers = [];
      m = Mutex.create ();
      work_ready = Condition.create ();
      work_finished = Condition.create ();
      task = None;
      generation = 0;
      next_slot = 1;
      completed = 0;
      stop = false;
    }
  in
  pool.workers <-
    List.init (njobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  let workers =
    Mutex.lock pool.m;
    let w = pool.workers in
    pool.workers <- [];
    pool.stop <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.m;
    w
  in
  List.iter Domain.join workers

(* [task] must not raise.  Worker [w >= 1] runs [task w]; the caller
   runs [task 0] and then blocks until every worker has finished. *)
let run_tasks pool task =
  if pool.njobs = 1 then task 0
  else begin
    Mutex.lock pool.m;
    if pool.stop then begin
      Mutex.unlock pool.m;
      invalid_arg "Parallel: pool already shut down"
    end;
    pool.task <- Some task;
    pool.generation <- pool.generation + 1;
    pool.next_slot <- 1;
    pool.completed <- 0;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.m;
    task 0;
    Mutex.lock pool.m;
    while pool.completed < pool.njobs - 1 do
      Condition.wait pool.work_finished pool.m
    done;
    pool.task <- None;
    Mutex.unlock pool.m
  end

(* The process-global pool, recreated when a different job count is
   requested. *)
let global_m = Mutex.create ()
let global : pool option ref = ref None
let cleanup_registered = ref false

let global_pool j =
  Mutex.lock global_m;
  let reuse =
    match !global with
    | Some p when p.njobs = j -> Some p
    | Some p ->
        shutdown p;
        global := None;
        None
    | None -> None
  in
  let p =
    match reuse with
    | Some p -> p
    | None ->
        let p = create ~jobs:j in
        global := Some p;
        if not !cleanup_registered then begin
          cleanup_registered := true;
          at_exit (fun () ->
              Mutex.lock global_m;
              let g = !global in
              global := None;
              Mutex.unlock global_m;
              Option.iter shutdown g)
        end;
        p
  in
  Mutex.unlock global_m;
  p

let sequential_map ~n ~init ~f =
  if n = 0 then [||]
  else
    let st = init 0 in
    Array.init n (f st)

let parallel_map pool ~n ~init ~f =
  let j = pool.njobs in
  let out = Array.make n None in
  let err = Atomic.make None in
  let record e = ignore (Atomic.compare_and_set err None (Some e)) in
  let task w =
    if w < n then begin
      match init w with
      | exception e -> record e
      | st ->
          let i = ref w in
          while !i < n && Option.is_none (Atomic.get err) do
            (match f st !i with
            | v -> out.(!i) <- Some v
            | exception e -> record e);
            i := !i + j
          done
    end
  in
  let tracing = Trace.enabled () in
  let busy = if tracing then Array.make j 0L else [||] in
  let task =
    if not tracing then task
    else fun w ->
      (* worker slot [w] runs in exactly one domain per map, so the
         slot write is unshared and the trace span lands in the
         worker's own domain state.  The shard span also roots the
         hierarchical spans the task opens on this domain. *)
      let t0 = Trace.now_ns () in
      Trace.in_span ~arg:w sp_shard (fun () -> task w);
      let dt = Int64.sub (Trace.now_ns ()) t0 in
      busy.(w) <- dt;
      Trace.add_ns t_busy dt;
      Trace.observe h_shard (Int64.to_float dt *. 1e-9)
  in
  run_tasks pool task;
  if tracing then begin
    let total = Array.fold_left Int64.add 0L busy in
    let slowest = Array.fold_left max 0L busy in
    if Int64.compare total 0L > 0 then
      (* max worker busy time over the mean, in permille: 1000 = a
         perfectly balanced sweep *)
      Trace.gauge_max g_imbalance
        (Int64.to_int
           (Int64.div
              (Int64.mul slowest (Int64.of_int (j * 1000)))
              total))
  end;
  (match Atomic.get err with Some e -> raise e | None -> ());
  Array.map (function Some v -> v | None -> assert false) out

let map ?jobs ~n ~init ~f () =
  Trace.incr c_maps;
  let j = resolve_jobs jobs in
  if j <= 1 || n <= 1 then sequential_map ~n ~init ~f
  else parallel_map (global_pool j) ~n ~init ~f

(* The value is published through an atomic so that readers after the
   first pay no lock; the mutex makes the first computation exclusive,
   so [f] runs once however many domains find the cell empty. *)
type 'a once = { value : 'a option Atomic.t; lock : Mutex.t }

let once () = { value = Atomic.make None; lock = Mutex.create () }

let force_once c f =
  match Atomic.get c.value with
  | Some v -> v
  | None ->
      Mutex.protect c.lock (fun () ->
          match Atomic.get c.value with
          | Some v -> v
          | None ->
              let v = f () in
              Atomic.set c.value (Some v);
              v)
