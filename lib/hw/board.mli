(** A simulated microcontroller development board.

    Assembles flash, RAM, UART and the virtual clock under a profile that
    captures what the fuzzer must adapt to per target: architecture,
    endianness, memory map, debug-port flavour, and whether a
    peripheral-accurate emulator exists for it (the property that decides
    Tardis/Gustave support in Table 1).

    Memory reads dispatch by address to flash or RAM like a bus matrix.
    Debug writes only touch RAM; flash is modified exclusively through
    the flash-programming operations, as with a real debug probe. *)

type debug_port = Jtag | Swd | Emulated

type profile = {
  name : string;
  arch : Arch.t;
  flash_base : int;
  flash_size : int;
  sector_size : int;
  ram_base : int;
  ram_size : int;
  cpu_mhz : int;
  debug_port : debug_port;
  peripheral_emulation : bool;
      (** a peripheral-accurate emulator exists (enables emulation-based
          tools such as Tardis/Gustave on this board) *)
}

type t

val create : profile -> t

val profile : t -> profile

val flash : t -> Flash.t

val ram : t -> Memory.t

val uart : t -> Uart.t

val gpio : t -> Gpio.t

val clock : t -> Clock.t

val install : t -> Image.t -> unit
(** Flash the image and record its partition table + integrity manifest,
    as a factory programming step would. *)

val partition_table : t -> Partition.t

val boot_ok : t -> bool
(** The simulated bootloader's integrity check: every partition CRC must
    match the manifest recorded at {!install}/reflash time. The board
    clock is not charged for it. *)

val corrupted_partitions : t -> string list
(** Partitions whose CRC no longer matches the manifest. The verdict is
    memoized on the flash's {!Memory.writes} counter, so booting an
    unchanged image costs no CRC pass; any flash write, {!install} or
    {!reflash_partition} forces a recheck. *)

val reflash_partition : t -> Image.t -> string -> (unit, string) result
(** Rewrite one partition from a (golden) image and refresh its manifest
    entry. *)

val snapshot : t -> Snapshot.t
(** Capture a copy-on-write snapshot of RAM and flash, charging the
    board clock the save cost. Take it right after {!install} so the
    saved state is the pristine image; the partition table and manifest
    are not part of the snapshot. *)

val restore_snapshot : t -> Snapshot.t -> int
(** Copy back only the pages written since the capture (or the previous
    restore) and charge the clock per dirty page; returns the pages
    copied. Callers follow with {!reset}, exactly like a reflash. *)

val reset : t -> unit
(** Power-cycle: clear RAM and the UART. Flash persists, and the clock
    keeps counting (it is the simulation's monotonic time base). *)

val power_cycles : t -> int

val read_mem : t -> addr:int -> len:int -> (string, Fault.t) result
(** Debugger-style read dispatching to flash or RAM. *)

val write_ram : t -> addr:int -> string -> (unit, Fault.t) result
(** Debugger-style write; fails with a bus fault outside RAM. *)

val debug_port_name : debug_port -> string
