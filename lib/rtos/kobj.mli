(** Kernel object registry.

    Every kernel object (task, queue, semaphore, timer, device, ...)
    gets an integer handle. Handles are never reused within a boot, and
    the registry deliberately keeps records for detached/deleted objects:
    several of the seeded Table-2 bugs are stale-handle bugs, which only
    exist because kernel code can still reach a dead object's carcass —
    as on the real RTOSes, where the handle is just a pointer. *)

type state = Active | Detached | Deleted

type payload = ..
(** Extended by each kernel-object module with its state record. *)

type obj = private {
  handle : int;
  kind : string;
  mutable name : string;
  mutable state : state;
  mutable payload : payload;
}
(** Private so that only {!detach} and {!delete} change [state]: an
    object never returns to [Active], which is what lets
    {!oldest_active} keep a forward-only cursor per kind. *)

type t

val create : unit -> t

val register : t -> kind:string -> name:string -> payload -> obj

val lookup : t -> int -> obj option
(** Unchecked lookup: returns detached/deleted carcasses too. Personality
    code that uses this without a state check is reproducing a bug. *)

val lookup_active : t -> int -> kind:string -> (obj, int64) result
(** The safe accessor: [Error Kerr.enoent] for unknown/dead handles,
    [Error Kerr.einval] for a kind mismatch. *)

val detach : obj -> unit

val delete : obj -> unit

val rename : obj -> string -> unit

val set_payload : obj -> payload -> unit

val active_count : t -> int

val total_count : t -> int

val iter_active : t -> (obj -> unit) -> unit

val oldest_active : t -> kind:string -> obj option
(** The lowest-handle [Active] object of [kind]: what a timer callback,
    work item or worker task locates as "the" semaphore or event group.
    Amortized O(1): a per-kind handle-ordered index with a cursor that
    only moves past objects that have left [Active]. *)

val state_name : state -> string
