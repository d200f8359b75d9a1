(* Measurement primitives shared by every workload: a wall clock,
   allocation counters, a major-heap high-water sampler, order
   statistics, and the in-memory span recorder of the traced run.

   Spans are recorded only by the benchmark's own code, around its
   calls into each layer's public functions; nothing inside lib/ is
   instrumented. With tracing off, [span] is a plain call. *)

let now = Unix.gettimeofday

(* Words allocated so far by this domain: minor allocations plus direct
   major allocations (promotions are subtracted so they count once). *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* --- order statistics ------------------------------------------------ *)

(* Linear interpolation between closest ranks (numpy's default, and
   Python's statistics.quantiles method="inclusive"). *)
let quantile q xs =
  match Array.length xs with
  | 0 -> nan
  | len ->
      let a = Array.copy xs in
      Array.sort compare a;
      let h = q *. float_of_int (len - 1) in
      let lo = truncate h in
      let hi = min (len - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* --- major-heap high water ------------------------------------------ *)

(* Sampled at the end of every major cycle (a GC alarm) and at each
   operation boundary; [heap_reset] starts a fresh window. *)
let heap_peak = ref 0

let heap_sample () =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  if w > !heap_peak then heap_peak := w

let heap_alarm = lazy (Gc.create_alarm heap_sample)

let heap_reset () =
  Lazy.force heap_alarm |> ignore;
  Gc.full_major ();
  heap_peak := 0;
  heap_sample ()

let heap_peak_mb () =
  heap_sample ();
  float_of_int (!heap_peak * (Sys.word_size / 8)) /. 1e6

(* --- spans ------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  op : int;  (** shared by every span of one trace or session *)
  name : string;  (** "<layer>.<call>" *)
  t0 : float;
  t1 : float;
  alloc : float;  (** words allocated inside the span *)
  events : int;  (** input events the call processed *)
}

let tracing = ref false

let spans : span list ref = ref []

let next_id = ref 0

let stack : int list ref = ref []

let cur_op = ref (-1)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* [span name ~events f] runs [f], recording a span when tracing is on. *)
let span ?(events = 0) name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let alloc = words () -. a0 in
      stack := List.tl !stack;
      spans :=
        { id; parent; op = !cur_op; name; t0; t1; alloc; events } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* A root span for operation [op]; its children share the id. *)
let op_span ?events op name f =
  cur_op := op;
  span ?events name f

let all_spans () = List.rev !spans

(* Per span name: total seconds, words, events and span count. *)
type total = { secs : float; wds : float; evs : int; count : int }

let totals_by_name () =
  let h = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let t =
        Option.value (Hashtbl.find_opt h s.name)
          ~default:{ secs = 0.; wds = 0.; evs = 0; count = 0 }
      in
      Hashtbl.replace h s.name
        {
          secs = t.secs +. (s.t1 -. s.t0);
          wds = t.wds +. s.alloc;
          evs = t.evs + s.events;
          count = t.count + 1;
        })
    !spans;
  h

(* Self time per layer: each span's duration minus the part its direct
   children cover (children never overlap: the run is single-threaded). *)
let self_by_layer () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (c +. (s.t1 -. s.t0)))
    !spans;
  let h = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.
      in
      let l = layer_of s.name in
      Hashtbl.replace h l
        (self +. Option.value (Hashtbl.find_opt h l) ~default:0.))
    !spans;
  h

(* One JSON object per span, for offline inspection. *)
let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f,\"alloc_words\":%.0f,\"events\":%d}\n"
        s.id s.parent s.op s.name s.t0 s.t1 s.alloc s.events)
    (all_spans ());
  close_out oc
