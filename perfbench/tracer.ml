(* In-memory span recorder for the traced benchmark run.

   Spans wrap the benchmark's own calls into the program's layers
   (init, step, finish, Inproc.run, each replay call); nothing inside
   the program is instrumented, so its control flow is untouched. Spans
   are kept in flat growable int arrays (no per-span allocation beyond
   amortised growth) and written out as JSONL when the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  on : bool;
  mutable n : int;
  mutable layer : string array;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable trace : int array;
}

let create ~on =
  let cap = if on then 4096 else 0 in
  {
    on;
    n = 0;
    layer = Array.make cap "";
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    trace = Array.make cap 0;
  }

let on t = t.on

let grow t =
  let cap = max 4096 (2 * Array.length t.start) in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.layer <- ext t.layer "";
  t.name <- ext t.name "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent (-1);
  t.trace <- ext t.trace 0

(* Record a finished span; returns its id (-1 when tracing is off). *)
let record t ~layer ~name ?(parent = -1) ?(trace = 0) ~start ~stop () =
  if not t.on then -1
  else begin
    if t.n = Array.length t.start then grow t;
    let i = t.n in
    t.layer.(i) <- layer;
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.parent.(i) <- parent;
    t.trace.(i) <- trace;
    t.n <- i + 1;
    i
  end

(* Open a span whose end is not known yet (a parent): returns its id. *)
let open_ t ~layer ~name ?parent ?trace () =
  let s = now_ns () in
  record t ~layer ~name ?parent ?trace ~start:s ~stop:s ()

let close t id = if id >= 0 then t.stop.(id) <- now_ns ()

(* Time [f ()] as a child span of [parent]. *)
let span t ~layer ~name ?parent ?trace f =
  if not t.on then f ()
  else begin
    let id = open_ t ~layer ~name ?parent ?trace () in
    let r = f () in
    close t id;
    r
  end

let count t = t.n

(* Self time per layer: a span's duration minus the part its children
   cover. Children are recorded inside their parent's interval, so the
   sum of child durations is the covered part. Sorted by layer name. *)
let self_ns_by_layer t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let self = t.stop.(i) - t.start.(i) - child.(i) in
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl t.layer.(i)) in
    Hashtbl.replace tbl t.layer.(i) (prev + self)
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write t path =
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"layer\":%S,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"trace\":%d}\n"
      i t.layer.(i) t.name.(i) t.start.(i) t.stop.(i) t.parent.(i) t.trace.(i)
  done;
  close_out oc
