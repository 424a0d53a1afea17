(** NOR-flash storage with sector-erase/program semantics.

    Programming can only clear bits (1 -> 0); turning bits back on
    requires erasing a whole sector to [0xFF]. The reflash path used by
    state restoration therefore erases the covering sectors before
    programming an image, as OpenOCD's [flash write_image] does. *)

type t

val create : base:int -> size:int -> sector_size:int -> endianness:Arch.endianness -> t
(** Fresh flash, fully erased ([0xFF]). [size] must be a positive
    multiple of [sector_size]. *)

val base : t -> int

val size : t -> int

val sector_size : t -> int

val mem : t -> Memory.t
(** The raw backing region (reads go through this; target code may read
    flash like memory, as on real MCUs). *)

val erase_sector : t -> addr:int -> unit
(** Erase the sector containing [addr]. @raise Fault.Trap if out of
    range. *)

val erase_range : t -> addr:int -> len:int -> unit
(** Erase every sector intersecting [\[addr, addr+len)]. *)

val program : t -> addr:int -> string -> unit
(** AND-program bytes at [addr]: each written bit pattern is combined as
    [old land new]. @raise Fault.Trap if out of range. *)

val write_image : t -> addr:int -> string -> unit
(** Erase then program: the reflash primitive. *)

val read : t -> addr:int -> len:int -> string

val crc_range : t -> addr:int -> len:int -> int32
(** CRC-32 of a flash range, computed in place.
    @raise Fault.Trap if out of range. *)

val erase_count : t -> int
(** Total sector erases since creation — a cheap wear metric used by the
    overhead experiments and tests. *)

val corrupt : t -> addr:int -> string -> unit
(** Scribble raw bytes, bypassing program semantics. Models in-system
    image damage caused by buggy kernel code. *)
