type t = { mem : Memory.t; sector_size : int; mutable erase_count : int }

let create ~base ~size ~sector_size ~endianness =
  if sector_size <= 0 || size <= 0 || size mod sector_size <> 0 then
    invalid_arg "Flash.create: size must be a positive multiple of sector_size";
  let mem = Memory.create ~base ~size ~endianness in
  Memory.fill mem ~addr:base ~len:size '\xFF';
  { mem; sector_size; erase_count = 0 }

let base t = Memory.base t.mem

let size t = Memory.size t.mem

let sector_size t = t.sector_size

let mem t = t.mem

let erase_sector t ~addr =
  if not (Memory.in_range t.mem ~addr ~len:1) then
    Fault.bus ~address:addr "flash erase outside device";
  let off = addr - base t in
  let sector_start = base t + (off / t.sector_size * t.sector_size) in
  Memory.fill t.mem ~addr:sector_start ~len:t.sector_size '\xFF';
  t.erase_count <- t.erase_count + 1

let erase_range t ~addr ~len =
  if len < 0 || not (Memory.in_range t.mem ~addr ~len) then
    Fault.bus ~address:addr "flash erase range outside device";
  if len > 0 then begin
    let first = (addr - base t) / t.sector_size in
    let last = (addr + len - 1 - base t) / t.sector_size in
    for s = first to last do
      erase_sector t ~addr:(base t + (s * t.sector_size))
    done
  end

let program t ~addr data =
  let len = String.length data in
  if not (Memory.in_range t.mem ~addr ~len) then
    Fault.bus ~address:addr "flash program outside device";
  if len > 0 then begin
    (* Bulk path: one read, the AND-combine on a local buffer, one write —
       the bus sees two block transactions instead of 2*len byte ones, and
       dirty pages are stamped once per block. *)
    let cur = Memory.read_bytes t.mem ~addr ~len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set cur i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get cur i) land Char.code (String.unsafe_get data i)))
    done;
    Memory.write_bytes t.mem ~addr cur
  end

let write_image t ~addr data =
  erase_range t ~addr ~len:(String.length data);
  program t ~addr data

let read t ~addr ~len = Bytes.unsafe_to_string (Memory.read_bytes t.mem ~addr ~len)

let crc_range t ~addr ~len = Memory.crc32 t.mem ~addr ~len

let erase_count t = t.erase_count

let corrupt t ~addr data = Memory.write_bytes t.mem ~addr (Bytes.of_string data)
