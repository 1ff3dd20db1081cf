(* SECDED / parity check-bit codec for 64-bit context words.

   The data word is never re-encoded: check bits live in a separate
   per-word field computed from the stored word, so protection-off images
   are bit-for-bit the unprotected ones.

   SECDED is the standard Hamming(71,64) extended with an overall parity
   bit.  Data bits occupy codeword positions 1..71 skipping the powers of
   two; the seven Hamming check bits c0..c6 sit at positions 1,2,4,...,64
   and each covers the data positions with that bit set, so the recomputed
   syndrome of a single-bit error is the error's position.  The overall
   parity bit distinguishes single (correctable) from double (detected,
   uncorrectable) errors. *)

module P = Cgra_arch.Protection

type verdict = Clean | Corrected of int64 | Detected

(* The word's low and high 32-bit halves as native ints. *)
let lo32 (w : int64) = Int64.to_int w land 0xFFFF_FFFF
let hi32 (w : int64) = Int64.to_int (Int64.shift_right_logical w 32)

let parity64 (w : int64) =
  let x = lo32 w lxor hi32 w in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

let parity_int x =
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

let is_pow2 n = n land (n - 1) = 0

(* Codeword position of each data bit (64 entries, values in 3..71), and
   the inverse map position -> data bit (-1 at check positions). *)
let pos_of_data, data_of_pos =
  let pos = Array.make 64 0 and inv = Array.make 72 (-1) in
  let d = ref 0 in
  let p = ref 1 in
  while !d < 64 do
    if not (is_pow2 !p) then begin
      pos.(!d) <- !p;
      inv.(!p) <- !d;
      incr d
    end;
    incr p
  done;
  (pos, inv)

(* Syndrome contribution of one byte lane: [lanes.((256 * l) + b)] is
   the XOR of the codeword positions of the set bits of byte value [b]
   in lane [l] (data bits [8l .. 8l + 7]). *)
let lanes =
  Array.init (8 * 256) (fun k ->
      let l = k / 256 and b = k mod 256 in
      let c = ref 0 in
      for j = 0 to 7 do
        if (b lsr j) land 1 = 1 then c := !c lxor pos_of_data.((8 * l) + j)
      done;
      !c)

(* Seven Hamming check bits of a data word, packed as an int (c_i at bit
   i, i.e. the syndrome value directly): one table lookup per byte. *)
let hamming7 (w : int64) =
  let lo = lo32 w and hi = hi32 w in
  lanes.(lo land 0xff)
  lxor lanes.(256 + ((lo lsr 8) land 0xff))
  lxor lanes.(512 + ((lo lsr 16) land 0xff))
  lxor lanes.(768 + (lo lsr 24))
  lxor lanes.(1024 + (hi land 0xff))
  lxor lanes.(1280 + ((hi lsr 8) land 0xff))
  lxor lanes.(1536 + ((hi lsr 16) land 0xff))
  lxor lanes.(1792 + (hi lsr 24))

let secded_bits (w : int64) =
  let h = hamming7 w in
  (* Overall parity covers the data and the seven Hamming bits. *)
  let p = parity64 w lxor parity_int h in
  h lor (p lsl 7)

let check_bits kind (w : int64) =
  match kind with
  | P.Unprotected -> 0
  | P.Parity -> parity64 w
  | P.Secded -> secded_bits w

let decode kind ~(data : int64) ~check =
  match kind with
  | P.Unprotected -> Clean
  | P.Parity -> if parity64 data = check then Clean else Detected
  | P.Secded ->
    let stored_h = check land 0x7f and stored_p = (check lsr 7) land 1 in
    let syndrome = stored_h lxor hamming7 data in
    let total =
      stored_p lxor parity64 data lxor parity_int stored_h
    in
    if syndrome = 0 then
      (* total = 1 would mean the overall parity bit itself flipped —
         the data is intact either way. *)
      Clean
    else if total = 1 then
      if syndrome < 72 && data_of_pos.(syndrome) >= 0 then
        Corrected
          (Int64.logxor data (Int64.shift_left 1L data_of_pos.(syndrome)))
      else
        (* A check-bit position (or an out-of-range syndrome from a
           multi-bit pattern): the data word is intact. *)
        Corrected data
    else Detected
