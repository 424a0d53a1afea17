type state = Active | Detached | Deleted

type payload = ..

type obj = {
  handle : int;
  kind : string;
  mutable name : string;
  mutable state : state;
  mutable payload : payload;
}

(* Every object of one kind in handle order, plus a cursor at the oldest
   one that may still be [Active]. Objects only ever leave [Active], so
   everything behind the cursor stays dead and the cursor only moves
   forward: [oldest_active] is amortized O(1) however many carcasses the
   boot has accumulated. *)
type kind_index = { mutable objs : obj array; mutable len : int; mutable oldest : int }

type t = {
  objects : (int, obj) Hashtbl.t;
  kinds : (string, kind_index) Hashtbl.t;
  mutable next_handle : int;
}

let create () = { objects = Hashtbl.create 64; kinds = Hashtbl.create 16; next_handle = 1 }

let index_append t obj =
  let idx =
    match Hashtbl.find_opt t.kinds obj.kind with
    | Some idx -> idx
    | None ->
      let idx = { objs = [||]; len = 0; oldest = 0 } in
      Hashtbl.replace t.kinds obj.kind idx;
      idx
  in
  if idx.len = Array.length idx.objs then begin
    let grown = Array.make (max 8 (2 * idx.len)) obj in
    Array.blit idx.objs 0 grown 0 idx.len;
    idx.objs <- grown
  end;
  idx.objs.(idx.len) <- obj;
  idx.len <- idx.len + 1

let register t ~kind ~name payload =
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  let obj = { handle; kind; name; state = Active; payload } in
  Hashtbl.replace t.objects handle obj;
  index_append t obj;
  obj

let lookup t handle = Hashtbl.find_opt t.objects handle

let lookup_active t handle ~kind =
  match Hashtbl.find_opt t.objects handle with
  | None -> Error Kerr.enoent
  | Some obj ->
    if obj.state <> Active then Error Kerr.enoent
    else if obj.kind <> kind then Error Kerr.einval
    else Ok obj

let detach obj = obj.state <- Detached

let delete obj = obj.state <- Deleted

let rename obj name = obj.name <- name

let set_payload obj payload = obj.payload <- payload

let fold t f init =
  Hashtbl.fold (fun _ obj acc -> f acc obj) t.objects init

let active_count t = fold t (fun acc obj -> if obj.state = Active then acc + 1 else acc) 0

let total_count t = Hashtbl.length t.objects

let iter_active t f =
  Hashtbl.iter (fun _ obj -> if obj.state = Active then f obj) t.objects

let oldest_active t ~kind =
  match Hashtbl.find_opt t.kinds kind with
  | None -> None
  | Some idx ->
    while idx.oldest < idx.len && idx.objs.(idx.oldest).state <> Active do
      idx.oldest <- idx.oldest + 1
    done;
    if idx.oldest < idx.len then Some idx.objs.(idx.oldest) else None

let state_name = function Active -> "active" | Detached -> "detached" | Deleted -> "deleted"
