open Eof_hw

let trap = Alcotest.testable (Fmt.of_to_string Fault.to_string) (fun a b -> a.Fault.kind = b.Fault.kind)

let mem_le () = Memory.create ~base:0x2000_0000 ~size:4096 ~endianness:Arch.Little

let test_memory_rw () =
  let m = mem_le () in
  Memory.write_u8 m 0x2000_0000 0xAB;
  Alcotest.(check int) "u8" 0xAB (Memory.read_u8 m 0x2000_0000);
  Memory.write_u16 m 0x2000_0010 0x1234;
  Alcotest.(check int) "u16" 0x1234 (Memory.read_u16 m 0x2000_0010);
  Alcotest.(check int) "u16 lo byte first" 0x34 (Memory.read_u8 m 0x2000_0010);
  Memory.write_u32 m 0x2000_0020 0xDEADBEEFl;
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Memory.read_u32 m 0x2000_0020)

let test_memory_big_endian () =
  let m = Memory.create ~base:0 ~size:64 ~endianness:Arch.Big in
  Memory.write_u16 m 0 0x1234;
  Alcotest.(check int) "be hi byte first" 0x12 (Memory.read_u8 m 0);
  Memory.write_u32 m 4 0x01020304l;
  Alcotest.(check int) "be msb" 0x01 (Memory.read_u8 m 4)

let test_memory_bus_fault () =
  let m = mem_le () in
  (try
     ignore (Memory.read_u8 m 0x1000_0000 : int);
     Alcotest.fail "no fault"
   with Fault.Trap f -> Alcotest.(check bool) "bus" true (f.Fault.kind = Fault.Bus_fault));
  try
    Memory.write_u32 m 0x2000_0FFE 0l;
    Alcotest.fail "straddle accepted"
  with Fault.Trap _ -> ()

let test_memory_bulk () =
  let m = mem_le () in
  Memory.write_bytes m ~addr:0x2000_0100 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Memory.read_bytes m ~addr:0x2000_0100 ~len:5));
  Memory.fill m ~addr:0x2000_0100 ~len:5 'x';
  Alcotest.(check string) "filled" "xxxxx"
    (Bytes.to_string (Memory.read_bytes m ~addr:0x2000_0100 ~len:5))

let test_flash_program_semantics () =
  let f = Flash.create ~base:0 ~size:8192 ~sector_size:4096 ~endianness:Arch.Little in
  Alcotest.(check string) "erased" "\xFF\xFF" (Flash.read f ~addr:0 ~len:2);
  Flash.program f ~addr:0 "\x0F";
  Alcotest.(check string) "programmed" "\x0F" (Flash.read f ~addr:0 ~len:1);
  (* Programming can only clear bits. *)
  Flash.program f ~addr:0 "\xF0";
  Alcotest.(check string) "AND semantics" "\x00" (Flash.read f ~addr:0 ~len:1);
  Flash.erase_sector f ~addr:0;
  Alcotest.(check string) "re-erased" "\xFF" (Flash.read f ~addr:0 ~len:1);
  Alcotest.(check int) "erase count" 1 (Flash.erase_count f)

let test_flash_write_image () =
  let f = Flash.create ~base:0 ~size:8192 ~sector_size:4096 ~endianness:Arch.Little in
  Flash.program f ~addr:100 "\x00\x00";
  Flash.write_image f ~addr:0 "fresh image bytes";
  Alcotest.(check string) "image readable" "fresh image bytes" (Flash.read f ~addr:0 ~len:17);
  (* write_image must erase first, so previously-cleared bits recover. *)
  Alcotest.(check string) "tail erased" "\xFF" (Flash.read f ~addr:100 ~len:1)

let test_partition_parse () =
  let text = "# table\npartition boot offset=0x0 size=0x1000\npartition app offset=0x1000 size=0x2000\n" in
  match Partition.parse_config ~flash_size:0x4000 text with
  | Error e -> Alcotest.fail e
  | Ok table ->
    Alcotest.(check int) "entries" 2 (List.length table);
    Alcotest.(check int) "total" 0x3000 (Partition.total_size table);
    let rendered = Partition.to_config table in
    (match Partition.parse_config ~flash_size:0x4000 rendered with
     | Ok table2 -> Alcotest.(check bool) "roundtrip" true (table = table2)
     | Error e -> Alcotest.fail e)

let test_partition_validation () =
  let bad overlap =
    Partition.validate ~flash_size:0x4000
      [
        { Partition.name = "a"; offset = 0; size = 0x2000 };
        { Partition.name = "b"; offset = (if overlap then 0x1000 else 0x2000); size = 0x1000 };
      ]
  in
  (match bad true with Error _ -> () | Ok () -> Alcotest.fail "overlap accepted");
  (match bad false with Ok () -> () | Error e -> Alcotest.fail e);
  match
    Partition.validate ~flash_size:0x1000
      [ { Partition.name = "x"; offset = 0; size = 0x2000 } ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversize accepted"

let test_uart_lines () =
  let u = Uart.create () in
  Uart.write_string u "hello\nwor";
  Alcotest.(check (list string)) "first drain" [ "hello" ] (Uart.drain_lines u);
  Uart.write_string u "ld\n";
  Alcotest.(check (list string)) "partial completes" [ "world" ] (Uart.drain_lines u)

let test_uart_overrun () =
  let u = Uart.create ~fifo_bytes:4 () in
  Uart.write_string u "abcdef";
  Alcotest.(check int) "overruns" 2 (Uart.overruns u);
  Alcotest.(check string) "newest kept" "cdef" (Uart.drain u)

let test_clock () =
  let c = Clock.create ~mhz:100 in
  Clock.advance c 1000;
  Alcotest.(check (float 1e-9)) "us" 10. (Clock.now_us c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative") (fun () ->
      Clock.advance c (-1))

let test_image_and_board () =
  let profile = Profiles.stm32f4_disco in
  let board = Board.create profile in
  let table =
    [
      { Partition.name = "bootloader"; offset = 0; size = 0x4000 };
      { Partition.name = "kernel"; offset = 0x4000; size = 0x8000 };
    ]
  in
  let image = Image.synthesize ~table ~seed:5L () in
  Board.install board image;
  Alcotest.(check bool) "boots" true (Board.boot_ok board);
  (* Corrupt the kernel partition. *)
  Flash.corrupt (Board.flash board) ~addr:(profile.Board.flash_base + 0x5000) "junk";
  Alcotest.(check bool) "corrupted" false (Board.boot_ok board);
  Alcotest.(check (list string)) "which" [ "kernel" ] (Board.corrupted_partitions board);
  (match Board.reflash_partition board image "kernel" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "recovered" true (Board.boot_ok board)

let test_board_mem_dispatch () =
  let board = Board.create Profiles.stm32f4_disco in
  let p = Board.profile board in
  (match Board.write_ram board ~addr:p.Board.ram_base "hi" with
   | Ok () -> ()
   | Error f -> Alcotest.fail (Fault.to_string f));
  (match Board.read_mem board ~addr:p.Board.ram_base ~len:2 with
   | Ok s -> Alcotest.(check string) "ram rw" "hi" s
   | Error f -> Alcotest.fail (Fault.to_string f));
  (match Board.read_mem board ~addr:p.Board.flash_base ~len:4 with
   | Ok _ -> ()
   | Error f -> Alcotest.fail (Fault.to_string f));
  (match Board.write_ram board ~addr:p.Board.flash_base "no" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "flash writable via debug write");
  match Board.read_mem board ~addr:0x1 ~len:4 with
  | Error f -> Alcotest.check trap "unmapped" { Fault.kind = Fault.Bus_fault; address = None; message = "" } f
  | Ok _ -> Alcotest.fail "unmapped readable"

let test_board_reset_keeps_clock () =
  let board = Board.create Profiles.stm32f4_disco in
  Clock.advance (Board.clock board) 500;
  Board.reset board;
  Alcotest.(check int64) "clock survives" 500L (Clock.cycles (Board.clock board));
  Alcotest.(check int) "power cycles" 1 (Board.power_cycles board)

let prop_image_verify_detects_corruption =
  QCheck.Test.make ~name:"image verify detects any flash corruption" ~count:50
    QCheck.(pair small_nat (string_of_size Gen.(1 -- 8)))
    (fun (off, junk) ->
      let table = [ { Partition.name = "k"; offset = 0; size = 0x4000 } ] in
      let image = Image.synthesize ~table ~seed:9L () in
      let flash = Flash.create ~base:0 ~size:0x4000 ~sector_size:0x1000 ~endianness:Arch.Little in
      Image.flash_all image flash;
      let off = off mod (0x4000 - String.length junk) in
      let before = Flash.read flash ~addr:off ~len:(String.length junk) in
      Flash.corrupt flash ~addr:off junk;
      let changed = before <> junk in
      let detected = Image.verify image flash <> [] in
      (not changed) || detected)

let suite =
  [
    Alcotest.test_case "memory rw" `Quick test_memory_rw;
    Alcotest.test_case "memory big-endian" `Quick test_memory_big_endian;
    Alcotest.test_case "memory bus fault" `Quick test_memory_bus_fault;
    Alcotest.test_case "memory bulk" `Quick test_memory_bulk;
    Alcotest.test_case "flash program semantics" `Quick test_flash_program_semantics;
    Alcotest.test_case "flash write_image" `Quick test_flash_write_image;
    Alcotest.test_case "partition parse" `Quick test_partition_parse;
    Alcotest.test_case "partition validation" `Quick test_partition_validation;
    Alcotest.test_case "uart lines" `Quick test_uart_lines;
    Alcotest.test_case "uart overrun" `Quick test_uart_overrun;
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "image install/verify/reflash" `Quick test_image_and_board;
    Alcotest.test_case "board memory dispatch" `Quick test_board_mem_dispatch;
    Alcotest.test_case "board reset keeps clock" `Quick test_board_reset_keeps_clock;
    QCheck_alcotest.to_alcotest prop_image_verify_detects_corruption;
  ]

let test_gpio_edges () =
  let g = Gpio.create () in
  (match Gpio.configure_irq g ~pin:3 Gpio.Rising with Ok () -> () | Error e -> Alcotest.fail e);
  (* Low -> low: no edge. *)
  ignore (Gpio.set_level g ~pin:3 ~level:false : (unit, string) result);
  Alcotest.(check int) "no edge" 0 (Gpio.pending_count g);
  (* Rising edge latches. *)
  ignore (Gpio.set_level g ~pin:3 ~level:true : (unit, string) result);
  Alcotest.(check int) "latched" 1 (Gpio.pending_count g);
  (* Falling is not armed. *)
  ignore (Gpio.set_level g ~pin:3 ~level:false : (unit, string) result);
  Alcotest.(check (list int)) "drain" [ 3 ] (Gpio.drain_pending g);
  Alcotest.(check int) "cleared" 0 (Gpio.pending_count g);
  (* Both-edge pin. *)
  ignore (Gpio.configure_irq g ~pin:5 Gpio.Both : (unit, string) result);
  ignore (Gpio.set_level g ~pin:5 ~level:true : (unit, string) result);
  ignore (Gpio.set_level g ~pin:5 ~level:false : (unit, string) result);
  Alcotest.(check (list int)) "both edges coalesce per pin" [ 5 ] (Gpio.drain_pending g);
  (* Unarmed pins never latch. *)
  ignore (Gpio.set_level g ~pin:7 ~level:true : (unit, string) result);
  Alcotest.(check int) "unarmed" 0 (Gpio.pending_count g);
  (match Gpio.set_level g ~pin:99 ~level:true with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "bad pin accepted");
  Gpio.reset g;
  Alcotest.(check bool) "reset clears level" false (Gpio.level g ~pin:3)

let suite = suite @ [ Alcotest.test_case "gpio edges" `Quick test_gpio_edges ]

(* Property: partition config print/parse round-trips. *)
let prop_partition_roundtrip =
  QCheck.Test.make ~name:"partition config roundtrip" ~count:100
    QCheck.(small_list (pair (int_bound 15) (int_bound 15)))
    (fun raw ->
      (* Build a valid non-overlapping table from the raw pairs. *)
      let entries, _ =
        List.fold_left
          (fun (acc, off) (i, sz) ->
            let size = 0x1000 * (1 + sz) in
            ( { Partition.name = Printf.sprintf "p%d_%d" (List.length acc) i;
                offset = off; size }
              :: acc,
              off + size ))
          ([], 0) raw
      in
      let table = List.rev entries in
      let flash_size = Partition.total_size table + 0x1000 in
      match Partition.parse_config ~flash_size (Partition.to_config table) with
      | Ok parsed -> parsed = table
      | Error _ -> table = [])

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_partition_roundtrip ]

(* --- copy-on-write snapshots -------------------------------------------- *)

let test_memory_dirty_pages () =
  let m = mem_le () in
  (* 4096 bytes = 16 device pages of 256 *)
  Memory.write_u8 m 0x2000_0000 0x11;
  (* pre-capture write: part of the baseline, not of the dirty set *)
  let baseline = Memory.baseline m in
  let since = Memory.mark_generation m in
  Alcotest.(check int) "clean after capture" 0 (Memory.dirty_page_count m ~since);
  Memory.write_u8 m 0x2000_0100 0xAA;
  Memory.write_u8 m 0x2000_0300 0xBB;
  Memory.write_u32 m 0x2000_0F00 0xDEADBEEFl;
  Alcotest.(check int) "three distinct pages dirty" 3
    (Memory.dirty_page_count m ~since);
  Memory.write_u8 m 0x2000_0101 0xCC;
  Alcotest.(check int) "same page counted once" 3
    (Memory.dirty_page_count m ~since);
  Alcotest.(check int) "restore copies exactly the dirty pages" 3
    (Memory.restore_pages m ~baseline ~since);
  Alcotest.(check int) "dirty content rewound" 0 (Memory.read_u8 m 0x2000_0100);
  Alcotest.(check int) "pre-capture write survives" 0x11
    (Memory.read_u8 m 0x2000_0000);
  Alcotest.(check int) "second restore copies nothing" 0
    (Memory.restore_pages m ~baseline ~since)

let test_memory_clear_dirty () =
  let m = mem_le () in
  Memory.write_u8 m 0x2000_0200 0x55;
  let baseline = Memory.baseline m in
  let since = Memory.mark_generation m in
  Memory.write_u8 m 0x2000_0500 0x66;
  Memory.clear m;
  (* clear zeroes only maybe-nonzero pages and stamps just those dirty —
     the pre-capture page 2 (whose baseline content clear destroyed) and
     the post-capture page 5, never the other 14. *)
  Alcotest.(check int) "clear dirties only written pages" 2
    (Memory.dirty_page_count m ~since);
  Alcotest.(check int) "restore copies them back" 2
    (Memory.restore_pages m ~baseline ~since);
  Alcotest.(check int) "pre-capture content back" 0x55
    (Memory.read_u8 m 0x2000_0200);
  Alcotest.(check int) "post-capture page pristine" 0
    (Memory.read_u8 m 0x2000_0500)

let test_board_snapshot_roundtrip () =
  let profile = Profiles.stm32f4_disco in
  let board = Board.create profile in
  let table = [ { Partition.name = "kernel"; offset = 0; size = 0x4000 } ] in
  let image = Image.synthesize ~table ~seed:7L () in
  Board.install board image;
  let before = Clock.cycles (Board.clock board) in
  let snap = Board.snapshot board in
  Alcotest.(check int64) "save cost covers every device page"
    (Int64.of_int (Snapshot.pages snap * Snapshot.save_cycles_per_page))
    (Int64.sub (Clock.cycles (Board.clock board)) before);
  (* Scribble over RAM and flash, breaking the installed image. *)
  (match Board.write_ram board ~addr:profile.Board.ram_base "scribble" with
   | Ok () -> ()
   | Error f -> Alcotest.fail (Fault.to_string f));
  Flash.corrupt (Board.flash board) ~addr:(profile.Board.flash_base + 0x100) "junk";
  Alcotest.(check bool) "image broken" false (Board.boot_ok board);
  let before = Clock.cycles (Board.clock board) in
  let dirty = Board.restore_snapshot board snap in
  Alcotest.(check bool) "some pages dirty" true (dirty > 0);
  Alcotest.(check bool) "far fewer than the board total" true
    (dirty < Snapshot.pages snap / 4);
  Alcotest.(check int64) "restore cost is O(dirty pages)"
    (Int64.of_int
       (Snapshot.restore_base_cycles + (dirty * Snapshot.restore_cycles_per_page)))
    (Int64.sub (Clock.cycles (Board.clock board)) before);
  Alcotest.(check bool) "image pristine again" true (Board.boot_ok board);
  match Board.read_mem board ~addr:profile.Board.ram_base ~len:8 with
  | Ok s -> Alcotest.(check string) "ram rewound" (String.make 8 '\000') s
  | Error f -> Alcotest.fail (Fault.to_string f)

let suite =
  suite
  @ [
      Alcotest.test_case "memory dirty-page accounting" `Quick test_memory_dirty_pages;
      Alcotest.test_case "memory clear keeps dirty set small" `Quick
        test_memory_clear_dirty;
      Alcotest.test_case "board snapshot roundtrip" `Quick test_board_snapshot_roundtrip;
    ]

(* --- memoized boot verdict ---------------------------------------------- *)

let test_memory_writes_counter () =
  let m = mem_le () in
  let bumps name f =
    let before = Memory.writes m in
    f ();
    Alcotest.(check bool) (name ^ " bumps writes") true (Memory.writes m > before)
  in
  bumps "write_u8" (fun () -> Memory.write_u8 m 0x2000_0000 1);
  bumps "write_u16" (fun () -> Memory.write_u16 m 0x2000_0010 2);
  bumps "write_u32" (fun () -> Memory.write_u32 m 0x2000_0020 3l);
  bumps "write_bytes" (fun () -> Memory.write_bytes m ~addr:0x2000_0030 (Bytes.of_string "ab"));
  bumps "fill" (fun () -> Memory.fill m ~addr:0x2000_0040 ~len:8 'x');
  let baseline = Memory.baseline m in
  let since = Memory.mark_generation m in
  Memory.write_u8 m 0x2000_0100 9;
  bumps "restore_pages" (fun () -> ignore (Memory.restore_pages m ~baseline ~since : int));
  let unchanged name f =
    let before = Memory.writes m in
    f ();
    Alcotest.(check int) (name ^ " leaves writes alone") before (Memory.writes m)
  in
  (* Reads, and passes that rewrite no page, change nothing. *)
  unchanged "read_u32" (fun () -> ignore (Memory.read_u32 m 0x2000_0000 : int32));
  unchanged "crc32" (fun () -> ignore (Memory.crc32 m ~addr:0x2000_0000 ~len:4096 : int32));
  unchanged "clean restore_pages" (fun () ->
      ignore (Memory.restore_pages m ~baseline ~since : int));
  bumps "clear" (fun () -> Memory.clear m);
  unchanged "clear of a zero region" (fun () -> Memory.clear m)

let test_flash_crc_in_place () =
  let f = Flash.create ~base:0x0800_0000 ~size:0x2000 ~sector_size:0x1000 ~endianness:Arch.Little in
  Flash.program f ~addr:0x0800_0100 "firmware";
  Alcotest.(check int32) "matches a CRC of the copied bytes"
    (Eof_util.Crc32.digest_string (Flash.read f ~addr:0x0800_00F0 ~len:0x40))
    (Flash.crc_range f ~addr:0x0800_00F0 ~len:0x40);
  try
    ignore (Flash.crc_range f ~addr:0x0800_1FF0 ~len:0x20 : int32);
    Alcotest.fail "no fault"
  with Fault.Trap e ->
    Alcotest.(check bool) "out of range is a bus fault" true (e.Fault.kind = Fault.Bus_fault)

(* Property: however flash bytes, the partition table and the manifest
   change, the memoized verdict equals an uncached recompute. Two images
   share one table; [owner] tracks whose manifest entry the board holds
   for each partition, so the expected verdict is [Image.verify] of that
   image restricted to that partition. *)
type flash_op =
  | Program of int * string
  | Erase of int * int
  | Write_image of int * string
  | Corrupt of int * string
  | Fill of int * int * char
  | Write_u8 of int * int
  | Write_u32 of int * int32
  | Dirty_and_restore of int * string
  | Reflash of bool * string
  | Install of bool

let verdict_table =
  [
    { Partition.name = "bootloader"; offset = 0; size = 0x4000 };
    { Partition.name = "kernel"; offset = 0x4000; size = 0x8000 };
    { Partition.name = "fs"; offset = 0xC000; size = 0x4000 };
  ]

let show_flash_op = function
  | Program (o, s) -> Printf.sprintf "program 0x%x %S" o s
  | Erase (o, n) -> Printf.sprintf "erase 0x%x+%d" o n
  | Write_image (o, s) -> Printf.sprintf "write_image 0x%x %S" o s
  | Corrupt (o, s) -> Printf.sprintf "corrupt 0x%x %S" o s
  | Fill (o, n, c) -> Printf.sprintf "fill 0x%x+%d %C" o n c
  | Write_u8 (o, v) -> Printf.sprintf "write_u8 0x%x %d" o v
  | Write_u32 (o, v) -> Printf.sprintf "write_u32 0x%x %ld" o v
  | Dirty_and_restore (o, s) -> Printf.sprintf "dirty 0x%x %S + restore" o s
  | Reflash (b, p) -> Printf.sprintf "reflash %s from %s" p (if b then "B" else "A")
  | Install b -> Printf.sprintf "install %s" (if b then "B" else "A")

let flash_op_gen =
  let open QCheck.Gen in
  (* Offsets reach past the table's 0x10000 bytes so some writes land
     outside every partition. *)
  let off = int_bound 0x11FFF in
  let bytes = string_size ~gen:char (int_range 1 8) in
  let part = oneofl [ "bootloader"; "kernel"; "fs" ] in
  frequency
    [
      (3, map2 (fun o s -> Program (o, s)) off bytes);
      (1, map2 (fun o n -> Erase (o, n)) off (int_range 1 64));
      (1, map2 (fun o s -> Write_image (o, s)) off bytes);
      (3, map2 (fun o s -> Corrupt (o, s)) off bytes);
      (2, map3 (fun o n c -> Fill (o, n, c)) off (int_range 1 16) char);
      (3, map2 (fun o v -> Write_u8 (o, v)) off (int_bound 255));
      (2, map2 (fun o v -> Write_u32 (o, v)) (int_bound 0x11FFC) (map Int32.of_int int));
      (2, map2 (fun o s -> Dirty_and_restore (o, s)) off bytes);
      (2, map2 (fun b p -> Reflash (b, p)) bool part);
      (1, map (fun b -> Install b) bool);
    ]

let prop_boot_verdict_cache =
  QCheck.Test.make ~name:"memoized boot verdict equals a fresh recompute" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_flash_op ops))
       QCheck.Gen.(list_size (int_range 1 40) flash_op_gen))
    (fun ops ->
      let profile = Profiles.stm32f4_disco in
      let board = Board.create profile in
      let flash = Board.flash board in
      let base = profile.Board.flash_base in
      let image_a = Image.synthesize ~table:verdict_table ~seed:11L () in
      let image_b = Image.synthesize ~table:verdict_table ~seed:12L () in
      let pick b = if b then image_b else image_a in
      Board.install board image_a;
      let snap = Board.snapshot board in
      let owner = Hashtbl.create 3 in
      let own_all img =
        List.iter (fun (e : Partition.entry) -> Hashtbl.replace owner e.name img) verdict_table
      in
      own_all image_a;
      let expected () =
        List.filter_map
          (fun (e : Partition.entry) ->
            if List.mem e.name (Image.verify (Hashtbl.find owner e.name) flash) then Some e.name
            else None)
          verdict_table
        |> List.sort compare
      in
      let apply = function
        | Program (o, s) -> Flash.program flash ~addr:(base + o) s
        | Erase (o, n) -> Flash.erase_range flash ~addr:(base + o) ~len:n
        | Write_image (o, s) -> Flash.write_image flash ~addr:(base + o) s
        | Corrupt (o, s) -> Flash.corrupt flash ~addr:(base + o) s
        | Fill (o, n, c) -> Memory.fill (Flash.mem flash) ~addr:(base + o) ~len:n c
        | Write_u8 (o, v) -> Memory.write_u8 (Flash.mem flash) (base + o) v
        | Write_u32 (o, v) -> Memory.write_u32 (Flash.mem flash) (base + o) v
        | Dirty_and_restore (o, s) ->
          (* The bootloader sees the damage before the rewind, so the
             restore itself must invalidate that verdict. *)
          Flash.corrupt flash ~addr:(base + o) s;
          ignore (Board.boot_ok board : bool);
          ignore (Board.restore_snapshot board snap : int)
        | Reflash (b, p) ->
          (match Board.reflash_partition board (pick b) p with
           | Ok () -> Hashtbl.replace owner p (pick b)
           | Error e -> failwith e)
        | Install b ->
          Board.install board (pick b);
          own_all (pick b)
      in
      List.for_all
        (fun op ->
          (* Consult the bootloader first so a verdict is cached across
             the mutation. *)
          ignore (Board.boot_ok board : bool);
          apply op;
          let want = expected () in
          List.sort compare (Board.corrupted_partitions board) = want
          && Board.boot_ok board = (want = []))
        ops)

let suite =
  suite
  @ [
      Alcotest.test_case "memory writes counter" `Quick test_memory_writes_counter;
      Alcotest.test_case "flash crc in place" `Quick test_flash_crc_in_place;
      QCheck_alcotest.to_alcotest prop_boot_verdict_cache;
    ]
