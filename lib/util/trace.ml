(* Per-domain trace state reached through domain-local storage: the hot
   path (incr/add/observe/in_span) touches only the calling domain's
   arrays, so there is no cross-domain contention and no locking.  The
   registry of metric names and the list of domain states are the only
   shared structures, both mutex-protected and touched only at handle
   creation / aggregation time.

   Visibility: workers run under Parallel's pool, whose mutex-guarded
   task handoff orders their state writes before the caller's reads, so
   quiescent-point aggregation needs no further synchronization. *)

(* The domain pool and the per-domain trace state are the only modules
   allowed to own concurrency primitives (DESIGN.md sections 6-7). *)
[@@@lint.allow "c1-concurrency"]

(* A mutex-guarded process-global metric registry: shared by design
   and touched only at handle creation / aggregation time. *)
[@@@lint.allow "c2-global-mut"]

(* ------------------------------------------------------------------ *)
(* Enable flag                                                         *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ------------------------------------------------------------------ *)
(* Name registry                                                       *)
(* ------------------------------------------------------------------ *)

type metric_kind = Counter | Gauge | Timer | Span | Hist

let reg_m = Mutex.create ()
let reg_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let reg_names : (string * metric_kind) array ref = ref [||]

let register name kind =
  Mutex.lock reg_m;
  let id =
    match Hashtbl.find_opt reg_ids name with
    | Some id -> id
    | None ->
        let id = Array.length !reg_names in
        Hashtbl.add reg_ids name id;
        reg_names := Array.append !reg_names [| (name, kind) |];
        id
  in
  Mutex.unlock reg_m;
  id

let kind_of id = snd !reg_names.(id)
let name_of id = fst !reg_names.(id)

let lookup name =
  Mutex.lock reg_m;
  let r = Hashtbl.find_opt reg_ids name in
  Mutex.unlock reg_m;
  r

(* ------------------------------------------------------------------ *)
(* Per-domain state                                                    *)
(* ------------------------------------------------------------------ *)

(* Hierarchical-span bookkeeping.  Each domain keeps a stack of open
   frames; closing a frame appends one completed record.  Records are
   linked to their parent by the parent's per-domain begin sequence, so
   sorting a domain's records by [rseq] yields a pre-order traversal of
   its span forest. *)
let span_capacity = 65536

(* Histogram geometry: log-linear (HDR-style) buckets.  Positive
   values are split into binary octaves of [hist_sub] linear
   sub-buckets each, so the relative width of any bucket is at most
   1/hist_sub of its octave (~6.25% at 16): a quantile read off a
   bucket's upper bound over-estimates the true sample quantile by
   less than that.  Slot 0 collects zero, negative and NaN
   observations; the octave range covers [2^-31, 2^34) (~5e-10 to
   ~1.7e10), which spans sub-nanosecond latencies in seconds up to
   iteration counts in the billions; values outside clamp to the
   nearest finite bucket. *)
let hist_sub = 16
let hist_min_exp = -30
let hist_max_exp = 34
let hist_octaves = hist_max_exp - hist_min_exp + 1
let hist_nbuckets = 1 + (hist_octaves * hist_sub)
let hist_upper_limit = Float.ldexp 1. hist_max_exp

let hist_bucket_index v =
  if not (v > 0.) then 0 (* zero, negative, NaN *)
  else if not (v < hist_upper_limit) then hist_nbuckets - 1
  else begin
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1) *)
    let o = e - hist_min_exp in
    if o < 0 then 1
    else begin
      let sub = int_of_float ((m -. 0.5) *. float_of_int (2 * hist_sub)) in
      let sub = if sub >= hist_sub then hist_sub - 1 else max 0 sub in
      1 + (o * hist_sub) + sub
    end
  end

(* Inclusive-exclusive [lower, upper) buckets; the reported bound of a
   bucket is its upper limit (0 for the nonpositive slot). *)
let hist_bucket_upper i =
  if i = 0 then 0.
  else
    let o = (i - 1) / hist_sub and sub = (i - 1) mod hist_sub in
    Float.ldexp
      (0.5 +. (float_of_int (sub + 1) /. float_of_int (2 * hist_sub)))
      (hist_min_exp + o)

type hist_state = {
  hcounts : int array;  (* by bucket index *)
  mutable hcount : int;
  mutable hsum : float;  (* finite observations only *)
  mutable hmin : float;
  mutable hmax : float;
}

type frame = {
  fr_id : int;  (* registered span id *)
  fr_arg : int;
  fr_seq : int;  (* per-domain begin sequence *)
  fr_parent : int;  (* parent's begin seq, -1 for roots *)
  fr_depth : int;
  fr_t0 : int64;
  fr_minor : float;  (* Gc.quick_stat words at entry *)
  fr_major : float;
}

type raw_span = {
  rid : int;
  rarg : int;
  rseq : int;
  rparent : int;
  rdepth : int;
  rt0 : int64;
  rt1 : int64;
  rminor : float;  (* words allocated during the span, this domain *)
  rmajor : float;
}

type dom_state = {
  dom : int;
  mutable ints : int array;  (* counter sums / gauge maxima, by id *)
  mutable ns : int64 array;  (* timer accumulators, by id *)
  mutable spans : int array;  (* timer span counts, by id *)
  mutable sp_stack : frame list;  (* open spans, innermost first *)
  mutable sp_seq : int;  (* begin sequences handed out *)
  mutable sp_records : raw_span list;  (* completed, newest first *)
  mutable sp_count : int;
  mutable sp_dropped : int;
  mutable hists : hist_state option array;  (* by id, allocated lazily *)
}

let states_m = Mutex.create ()
let states : dom_state list ref = ref []

let new_state () =
  let st =
    {
      dom = (Domain.self () :> int);
      ints = Array.make 64 0;
      ns = Array.make 64 0L;
      spans = Array.make 64 0;
      sp_stack = [];
      sp_seq = 0;
      sp_records = [];
      sp_count = 0;
      sp_dropped = 0;
      hists = Array.make 16 None;
    }
  in
  Mutex.lock states_m;
  states := st :: !states;
  Mutex.unlock states_m;
  st

let dls_key = Domain.DLS.new_key new_state
let my_state () = Domain.DLS.get dls_key

(* Only the owning domain grows its arrays; readers bound their
   accesses by the array length they observe. *)
let ensure_ints st id =
  let len = Array.length st.ints in
  if id >= len then begin
    let a = Array.make (max (id + 1) (2 * len)) 0 in
    Array.blit st.ints 0 a 0 len;
    st.ints <- a
  end

let ensure_timers st id =
  let len = Array.length st.ns in
  if id >= len then begin
    let n = max (id + 1) (2 * len) in
    let a = Array.make n 0L and c = Array.make n 0 in
    Array.blit st.ns 0 a 0 len;
    Array.blit st.spans 0 c 0 len;
    st.ns <- a;
    st.spans <- c
  end

let snapshot_states () =
  Mutex.lock states_m;
  let l = !states in
  Mutex.unlock states_m;
  (* oldest first, so folds are deterministic in registration order *)
  List.sort (fun a b -> compare a.dom b.dom) l

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

type counter = int

let counter name = register name Counter

let add c n =
  if !enabled_flag then begin
    let st = my_state () in
    ensure_ints st c;
    st.ints.(c) <- st.ints.(c) + n
  end

let incr c = add c 1

let value c =
  List.fold_left
    (fun acc st -> if c < Array.length st.ints then acc + st.ints.(c) else acc)
    0 (snapshot_states ())

type gauge = int

let gauge name = register name Gauge

let gauge_max g v =
  if !enabled_flag then begin
    let st = my_state () in
    ensure_ints st g;
    if v > st.ints.(g) then st.ints.(g) <- v
  end

let gauge_value g =
  List.fold_left
    (fun acc st ->
      if g < Array.length st.ints then max acc st.ints.(g) else acc)
    0 (snapshot_states ())

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

type timer = int

let timer name = register name Timer
let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9

let add_ns t dns =
  if !enabled_flag then begin
    let st = my_state () in
    ensure_timers st t;
    st.ns.(t) <- Int64.add st.ns.(t) dns;
    st.spans.(t) <- st.spans.(t) + 1
  end

let with_span t f =
  if not !enabled_flag then f ()
  else begin
    let t0 = now_ns () in
    match f () with
    | v ->
        add_ns t (Int64.sub (now_ns ()) t0);
        v
    | exception e ->
        add_ns t (Int64.sub (now_ns ()) t0);
        raise e
  end

let timer_ns t =
  List.fold_left
    (fun acc st ->
      if t < Array.length st.ns then Int64.add acc st.ns.(t) else acc)
    0L (snapshot_states ())

let timer_seconds t = Int64.to_float (timer_ns t) /. 1e9

let timer_count t =
  List.fold_left
    (fun acc st -> if t < Array.length st.spans then acc + st.spans.(t) else acc)
    0 (snapshot_states ())

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

type hist = int

let hist name = register name Hist

let ensure_hist st id =
  let len = Array.length st.hists in
  if id >= len then begin
    let a = Array.make (max (id + 1) (2 * len)) None in
    Array.blit st.hists 0 a 0 len;
    st.hists <- a
  end;
  match st.hists.(id) with
  | Some hs -> hs
  | None ->
      let hs =
        {
          hcounts = Array.make hist_nbuckets 0;
          hcount = 0;
          hsum = 0.;
          hmin = infinity;
          hmax = neg_infinity;
        }
      in
      st.hists.(id) <- Some hs;
      hs

let observe h v =
  if !enabled_flag then begin
    let st = my_state () in
    let hs = ensure_hist st h in
    let idx = hist_bucket_index v in
    hs.hcounts.(idx) <- hs.hcounts.(idx) + 1;
    hs.hcount <- hs.hcount + 1;
    if not (Float.is_nan v) then begin
      hs.hsum <- hs.hsum +. v;
      if v < hs.hmin then hs.hmin <- v;
      if v > hs.hmax then hs.hmax <- v
    end
  end

let observe_duration h f =
  if not !enabled_flag then f ()
  else begin
    let t0 = now_ns () in
    let fin () =
      observe h (Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9)
    in
    match f () with
    | v ->
        fin ();
        v
    | exception e ->
        fin ();
        raise e
  end

type hist_snapshot = {
  hist_count : int;
  hist_sum : float;
  hist_min : float;
  hist_max : float;
  hist_buckets : (float * int) list;
}

(* Cross-domain merge: bucket counts are integer sums, so the merged
   distribution (and every quantile read from it) is identical to what
   a sequential run observing the same multiset would produce; domain
   states are visited in sorted-id order so the float [hist_sum] is
   also reproducible for a fixed job count. *)
let hist_snapshot h =
  let counts = Array.make hist_nbuckets 0 in
  let count = ref 0
  and sum = ref 0.
  and mn = ref infinity
  and mx = ref neg_infinity in
  List.iter
    (fun st ->
      if h < Array.length st.hists then
        match st.hists.(h) with
        | None -> ()
        | Some hs ->
            Array.iteri
              (fun i c -> if c > 0 then counts.(i) <- counts.(i) + c)
              hs.hcounts;
            count := !count + hs.hcount;
            sum := !sum +. hs.hsum;
            if hs.hmin < !mn then mn := hs.hmin;
            if hs.hmax > !mx then mx := hs.hmax)
    (snapshot_states ());
  let buckets = ref [] in
  for i = hist_nbuckets - 1 downto 0 do
    if counts.(i) > 0 then buckets := (hist_bucket_upper i, counts.(i)) :: !buckets
  done;
  let empty = !mn > !mx in
  {
    hist_count = !count;
    hist_sum = !sum;
    hist_min = (if empty then Float.nan else !mn);
    hist_max = (if empty then Float.nan else !mx);
    hist_buckets = !buckets;
  }

let hist_quantile_of s q =
  if s.hist_count = 0 then Float.nan
  else if q >= 1. then s.hist_max
  else begin
    let q = if q < 0. then 0. else q in
    (* smallest recorded bucket whose cumulative count reaches the
       rank — the same "smallest v with fraction(<= v) >= q"
       convention as Stats.percentile *)
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int s.hist_count))) in
    let rec walk cum = function
      | [] -> s.hist_max
      | (upper, c) :: rest ->
          let cum = cum + c in
          (* a bucket's upper bound over-estimates by < 1/hist_sub;
             clamping to the exact maximum makes single-valued and
             top-quantile reads exact *)
          if cum >= rank then Float.min upper s.hist_max else walk cum rest
    in
    walk 0 s.hist_buckets
  end

(* ------------------------------------------------------------------ *)
(* Hierarchical spans                                                  *)
(* ------------------------------------------------------------------ *)

type span = int

let span name = register name Span

let span_begin ?(arg = 0) sp =
  if !enabled_flag then begin
    let st = my_state () in
    (* Gc.minor_words reads the live allocation pointer; quick_stat's
       minor_words only advances at minor-collection boundaries, so a
       short span would always see a zero delta through it. *)
    let minor = Gc.minor_words () in
    let g = Gc.quick_stat () in
    let parent, depth =
      match st.sp_stack with
      | [] -> (-1, 0)
      | f :: _ -> (f.fr_seq, f.fr_depth + 1)
    in
    let seq = st.sp_seq in
    st.sp_seq <- seq + 1;
    st.sp_stack <-
      {
        fr_id = sp;
        fr_arg = arg;
        fr_seq = seq;
        fr_parent = parent;
        fr_depth = depth;
        fr_t0 = now_ns ();
        fr_minor = minor;
        fr_major = g.Gc.major_words;
      }
      :: st.sp_stack
  end

(* Ends the innermost open span of the calling domain; the handle is
   only documentation (begin/end pairs must nest, which the profiler
   tests assert).  Always pops when a frame is open, even if tracing
   was toggled mid-span, so the stack can never wedge. *)
let span_end _sp =
  let st = my_state () in
  match st.sp_stack with
  | [] -> ()
  | f :: rest ->
      st.sp_stack <- rest;
      let t1 = now_ns () in
      let minor = Gc.minor_words () in
      let g = Gc.quick_stat () in
      (* spans double as timers: totals by name come for free *)
      ensure_timers st f.fr_id;
      st.ns.(f.fr_id) <- Int64.add st.ns.(f.fr_id) (Int64.sub t1 f.fr_t0);
      st.spans.(f.fr_id) <- st.spans.(f.fr_id) + 1;
      if st.sp_count >= span_capacity then st.sp_dropped <- st.sp_dropped + 1
      else begin
        st.sp_count <- st.sp_count + 1;
        st.sp_records <-
          {
            rid = f.fr_id;
            rarg = f.fr_arg;
            rseq = f.fr_seq;
            rparent = f.fr_parent;
            rdepth = f.fr_depth;
            rt0 = f.fr_t0;
            rt1 = t1;
            rminor = minor -. f.fr_minor;
            rmajor = g.Gc.major_words -. f.fr_major;
          }
          :: st.sp_records
      end

let in_span ?(arg = 0) sp f =
  if not !enabled_flag then f ()
  else begin
    span_begin ~arg sp;
    match f () with
    | v ->
        span_end sp;
        v
    | exception e ->
        span_end sp;
        raise e
  end

type span_record = {
  span_name : string;
  span_arg : int;
  span_dom : int;
  span_seq : int;
  span_parent : int;
  span_depth : int;
  span_t0_ns : int64;
  span_t1_ns : int64;
  span_minor_words : float;
  span_major_words : float;
}

let span_records () =
  snapshot_states ()
  |> List.concat_map (fun (st : dom_state) ->
         (* newest-first storage, so reversing sorts by begin seq *)
         List.rev_map
           (fun r ->
             {
               span_name = name_of r.rid;
               span_arg = r.rarg;
               span_dom = st.dom;
               span_seq = r.rseq;
               span_parent = r.rparent;
               span_depth = r.rdepth;
               span_t0_ns = r.rt0;
               span_t1_ns = r.rt1;
               span_minor_words = r.rminor;
               span_major_words = r.rmajor;
             })
           st.sp_records)

let spans_logged () =
  List.fold_left
    (fun acc st -> acc + st.sp_count + st.sp_dropped)
    0 (snapshot_states ())

let spans_dropped () =
  List.fold_left (fun acc st -> acc + st.sp_dropped) 0 (snapshot_states ())

let spans_open () =
  List.fold_left
    (fun acc st -> acc + List.length st.sp_stack)
    0 (snapshot_states ())

type span_tree = {
  node_name : string;
  node_arg : int;
  node_dom : int;
  node_t0_ns : int64;
  node_t1_ns : int64;
  node_minor_words : float;
  node_major_words : float;
  node_children : span_tree list;
}

let span_trees () =
  let records = span_records () in
  (* per (dom, parent-seq) child lists; records arrive sorted by
     (dom, seq), i.e. pre-order, so each list stays in begin order *)
  let children : (int * int, span_record list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let bucket dom parent =
    match Hashtbl.find_opt children (dom, parent) with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add children (dom, parent) l;
        l
  in
  List.iter
    (fun r ->
      let l = bucket r.span_dom r.span_parent in
      l := r :: !l)
    records;
  let rec build (r : span_record) =
    let kids =
      match Hashtbl.find_opt children (r.span_dom, r.span_seq) with
      | None -> []
      | Some l -> List.rev_map build !l  (* prepended, so rev = begin order *)
    in
    {
      node_name = r.span_name;
      node_arg = r.span_arg;
      node_dom = r.span_dom;
      node_t0_ns = r.span_t0_ns;
      node_t1_ns = r.span_t1_ns;
      node_minor_words = r.span_minor_words;
      node_major_words = r.span_major_words;
      node_children = kids;
    }
  in
  (* roots: parent -1, already (dom, seq)-ordered.  A record whose
     parent was dropped by the capacity cap is orphaned and omitted
     rather than misattached. *)
  List.filter (fun r -> r.span_parent = -1) records |> List.map build

(* ------------------------------------------------------------------ *)
(* Aggregated reads and reset                                           *)
(* ------------------------------------------------------------------ *)

let registry () =
  Mutex.lock reg_m;
  let l = Array.to_list !reg_names in
  Mutex.unlock reg_m;
  List.sort compare l

let value_by_name name =
  match lookup name with
  | Some id -> (
      match kind_of id with
      | Counter -> value id
      | Gauge -> gauge_value id
      | _ -> 0)
  | None -> 0

let hist_snapshot_by_name name =
  match lookup name with
  | Some id -> hist_snapshot id
  | None ->
      {
        hist_count = 0;
        hist_sum = 0.;
        hist_min = Float.nan;
        hist_max = Float.nan;
        hist_buckets = [];
      }

let timer_seconds_by_name name =
  match lookup name with Some id -> timer_seconds id | None -> 0.

let timer_count_by_name name =
  match lookup name with Some id -> timer_count id | None -> 0

let reset () =
  List.iter
    (fun st ->
      Array.fill st.ints 0 (Array.length st.ints) 0;
      Array.fill st.ns 0 (Array.length st.ns) 0L;
      Array.fill st.spans 0 (Array.length st.spans) 0;
      st.sp_stack <- [];
      st.sp_seq <- 0;
      st.sp_records <- [];
      st.sp_count <- 0;
      st.sp_dropped <- 0;
      Array.iter
        (function
          | None -> ()
          | Some hs ->
              Array.fill hs.hcounts 0 hist_nbuckets 0;
              hs.hcount <- 0;
              hs.hsum <- 0.;
              hs.hmin <- infinity;
              hs.hmax <- neg_infinity)
        st.hists)
    (snapshot_states ())
