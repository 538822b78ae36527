let sum16 data off len =
  if off < 0 || len < 0 || off + len > Bytes.length data then invalid_arg "Checksum.sum16";
  let s = ref 0 in
  for i = off to off + len - 1 do
    s := !s + Char.code (Bytes.unsafe_get data i)
  done;
  !s land 0xffff
