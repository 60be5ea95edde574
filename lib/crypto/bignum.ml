(* Little-endian limbs in [0, 2^26); no high zero limbs; [||] is zero. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int i =
  if i < 0 then invalid_arg "Bignum.of_int: negative"
  else if i = 0 then zero
  else begin
    let rec limbs acc i = if i = 0 then List.rev acc else limbs ((i land limb_mask) :: acc) (i lsr limb_bits) in
    Array.of_list (limbs [] i)
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0
let is_zero a = Array.length a = 0
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let bits a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec msb k = if top lsr k = 0 then k else msb (k + 1) in
    ((n - 1) * limb_bits) + msb 0
  end

let to_int_opt a =
  if bits a > 62 then None
  else begin
    let rec go i acc = if i < 0 then acc else go (i - 1) ((acc lsl limb_bits) lor a.(i)) in
    Some (go (Array.length a - 1) 0)
  end

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let t = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      (* Propagate the final carry (it can exceed one limb). *)
      let k = ref (i + lb) in
      while !carry > 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land limb_mask;
        carry := t lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (a : t) k =
  if k < 0 then invalid_arg "Bignum.shift_left"
  else if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right (a : t) k =
  if k < 0 then invalid_arg "Bignum.shift_right"
  else if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift > 0 && i + limb_shift + 1 < la then
            (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
          else 0
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Division by a single limb. *)
let divmod_small (a : t) d =
  if d = 0 then raise Division_by_zero;
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth TAOCP vol. 2, algorithm 4.3.1 D. *)
let divmod_knuth (u0 : t) (v0 : t) =
  let n = Array.length v0 in
  (* Normalise so the top limb of v has its high bit set. *)
  let s =
    let rec go k = if v0.(n - 1) lsl k >= base / 2 then k else go (k + 1) in
    go 0
  in
  let v = shift_left v0 s in
  let u_shifted = shift_left u0 s in
  let m = Array.length u_shifted - n in
  (* Working copy of u with one extra high limb. *)
  let u = Array.make (Array.length u_shifted + 1) 0 in
  Array.blit u_shifted 0 u 0 (Array.length u_shifted);
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let top = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (top / v.(n - 1)) in
    let rhat = ref (top mod v.(n - 1)) in
    let continue_correction = ref true in
    while !continue_correction do
      if
        !qhat >= base
        || (n >= 2 && !qhat * v.(n - 2) > (!rhat lsl limb_bits) lor u.(j + n - 2))
      then begin
        decr qhat;
        rhat := !rhat + v.(n - 1);
        if !rhat >= base then continue_correction := false
      end
      else continue_correction := false
    done;
    (* Multiply-subtract qhat * v from u[j .. j+n]. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = u.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add v back. *)
      u.(j + n) <- d + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let t = u.(i + j) + v.(i) + !carry2 in
        u.(i + j) <- t land limb_mask;
        carry2 := t lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry2) land limb_mask
    end
    else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub u 0 n) in
  (normalize q, shift_right r s)

let divmod a b =
  if is_zero b then raise Division_by_zero
  else if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let rem a b = snd (divmod a b)

(* A modulus prepared for repeated exponentiation.  An odd modulus of n
   limbs carries its Montgomery constants for R = 2^(26 n): -m^-1 mod
   2^26 and R^2 mod m (padded to n limbs).  The record is immutable, so
   one value can be shared by every user of a key; [modpow] allocates
   its own scratch. *)
type modulus =
  | Odd of { m : t; minv : int; r2 : int array }
  | Even of t

let pad_limbs n (a : t) =
  let r = Array.make n 0 in
  Array.blit a 0 r 0 (Array.length a);
  r

let modulus m =
  if is_zero m then raise Division_by_zero
  else if is_even m then Even m
  else begin
    let n = Array.length m in
    (* Newton's iteration for m0^-1 mod 2^26: an odd m0 is its own
       inverse mod 8, and each step doubles the correct low bits. *)
    let m0 = m.(0) in
    let x = ref m0 in
    for _ = 1 to 4 do
      x := !x * ((2 - (m0 * !x land limb_mask)) land limb_mask) land limb_mask
    done;
    let minv = (base - !x) land limb_mask in
    let r2 = pad_limbs n (rem (shift_left one (2 * limb_bits * n)) m) in
    Odd { m; minv; r2 }
  end

(* Montgomery multiplication, CIOS with the reduction folded into the
   product loop: [dst] <- a * b * R^-1 mod m for n-limb [a], [b] below
   m.  [t] is (n+1)-limb scratch; [dst] may alias [a] or [b].  Every
   intermediate is below 2^54, well inside a native int. *)
let mont_mul m minv a b t dst =
  let n = Array.length m in
  Array.fill t 0 (n + 1) 0;
  for i = 0 to n - 1 do
    let bi = b.(i) in
    let s = t.(0) + (a.(0) * bi) in
    let u = (s land limb_mask) * minv land limb_mask in
    let c = ref ((s + (u * m.(0))) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s = t.(j) + (a.(j) * bi) + (u * m.(j)) + !c in
      t.(j - 1) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.(n) + !c in
    t.(n - 1) <- s land limb_mask;
    t.(n) <- s lsr limb_bits
  done;
  (* t < 2m: one conditional subtraction brings it below m. *)
  let below =
    t.(n) = 0
    &&
    let rec go j = j >= 0 && (t.(j) < m.(j) || (t.(j) = m.(j) && go (j - 1))) in
    go (n - 1)
  in
  if below then Array.blit t 0 dst 0 n
  else begin
    let borrow = ref 0 in
    for j = 0 to n - 1 do
      let d = t.(j) - m.(j) - !borrow in
      if d < 0 then begin
        dst.(j) <- d + base;
        borrow := 1
      end
      else begin
        dst.(j) <- d;
        borrow := 0
      end
    done
  end

let bit (e : t) i = (e.(i / limb_bits) lsr (i mod limb_bits)) land 1

(* Exponents longer than this use a fixed 4-bit window. *)
let window_threshold = 64

let modpow_mont m minv r2 b e =
  let n = Array.length m in
  let t = Array.make (n + 1) 0 in
  let x = pad_limbs n (rem b m) in
  mont_mul m minv x r2 t x;
  let acc = Array.copy x in
  let nbits = bits e in
  if nbits <= window_threshold then
    (* Left to right from below the top bit, which [acc = x] covers. *)
    for i = nbits - 2 downto 0 do
      mont_mul m minv acc acc t acc;
      if bit e i = 1 then mont_mul m minv acc x t acc
    done
  else begin
    (* table.(k) = x^k in Montgomery form, k = 1 .. 15. *)
    let table = Array.make 16 x in
    for k = 2 to 15 do
      let y = Array.make n 0 in
      mont_mul m minv table.(k - 1) x t y;
      table.(k) <- y
    done;
    (* Digit k is bits 4k .. 4k+3; the top one holds the leftover high
       bits, including the top bit, so it is never zero. *)
    let digit k =
      let d = ref 0 in
      for i = min (nbits - 1) ((4 * k) + 3) downto 4 * k do
        d := (!d lsl 1) lor bit e i
      done;
      !d
    in
    let kmax = (nbits - 1) / 4 in
    Array.blit table.(digit kmax) 0 acc 0 n;
    for k = kmax - 1 downto 0 do
      for _ = 1 to 4 do
        mont_mul m minv acc acc t acc
      done;
      let d = digit k in
      if d <> 0 then mont_mul m minv acc table.(d) t acc
    done
  end;
  (* Leave the Montgomery domain: multiply by 1. *)
  let unit = Array.make n 0 in
  unit.(0) <- 1;
  mont_mul m minv acc unit t acc;
  normalize acc

(* Square-and-multiply with a division after every product: the only
   path for even moduli, which have no Montgomery form. *)
let modpow_plain b e m =
  let result = ref one in
  let b = ref (rem b m) in
  let nbits = bits e in
  for i = 0 to nbits - 1 do
    if bit e i = 1 then result := rem (mul !result !b) m;
    if i < nbits - 1 then b := rem (mul !b !b) m
  done;
  !result

let modpow b e = function
  | Odd { m; _ } when equal m one -> zero
  | Odd _ when is_zero e -> one
  | Odd { m; minv; r2 } -> modpow_mont m minv r2 b e
  | Even m -> modpow_plain b e m

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Extended Euclid with a small signed layer (sign * magnitude). *)
let modinv a m =
  if is_zero m then raise Division_by_zero;
  let sadd (sa, va) (sb, vb) =
    if sa = sb then (sa, add va vb)
    else if compare va vb >= 0 then (sa, sub va vb)
    else (sb, sub vb va)
  in
  let smul_nat q (s, v) = (s, mul q v) in
  let sneg (s, v) = ((if is_zero v then 1 else -s), v) in
  let rec go old_r r old_s s =
    if is_zero r then (old_r, old_s)
    else begin
      let q, r' = divmod old_r r in
      let s' = sadd old_s (sneg (smul_nat q s)) in
      go r r' s s'
    end
  in
  let g, (sign, v) = go (rem a m) m (1, one) (1, zero) in
  if not (equal g one) then None
  else begin
    let v = rem v m in
    if sign >= 0 || is_zero v then Some v else Some (sub m v)
  end

let random_bits prng n =
  if n <= 0 then invalid_arg "Bignum.random_bits";
  let nlimbs = (n + limb_bits - 1) / limb_bits in
  let r = Array.make nlimbs 0 in
  for i = 0 to nlimbs - 1 do
    r.(i) <- Int64.to_int (Int64.logand (Prng.next_int64 prng) (Int64.of_int limb_mask))
  done;
  (* Mask above bit n-1, then force the top bit. *)
  let top = n - 1 in
  let top_limb = top / limb_bits and top_bit = top mod limb_bits in
  for i = top_limb + 1 to nlimbs - 1 do
    r.(i) <- 0
  done;
  r.(top_limb) <- (r.(top_limb) land ((1 lsl (top_bit + 1)) - 1)) lor (1 lsl top_bit);
  normalize r

let random_below prng bound =
  if is_zero bound then invalid_arg "Bignum.random_below: zero bound";
  let n = bits bound in
  let rec try_once attempts =
    if attempts > 1000 then rem (random_bits prng n) bound
    else begin
      (* Draw n random bits without forcing the top bit. *)
      let nlimbs = (n + limb_bits - 1) / limb_bits in
      let r = Array.make nlimbs 0 in
      for i = 0 to nlimbs - 1 do
        r.(i) <- Int64.to_int (Int64.logand (Prng.next_int64 prng) (Int64.of_int limb_mask))
      done;
      let top = n - 1 in
      let top_limb = top / limb_bits and top_bit = top mod limb_bits in
      for i = top_limb + 1 to nlimbs - 1 do
        r.(i) <- 0
      done;
      r.(top_limb) <- r.(top_limb) land ((1 lsl (top_bit + 1)) - 1);
      let v = normalize r in
      if compare v bound < 0 then v else try_once (attempts + 1)
    end
  in
  try_once 0

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139;
    149; 151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223;
    227; 229; 233; 239; 241; 251 ]

let is_probable_prime prng ?(rounds = 20) n =
  if compare n two < 0 then false
  else if
    List.exists
      (fun p ->
        let bp = of_int p in
        equal n bp)
      small_primes
  then true
  else if
    List.exists
      (fun p -> snd (divmod_small n p) = 0)
      small_primes
  then false
  else begin
    (* n - 1 = d * 2^r with d odd *)
    let n1 = sub n one in
    let rec split d r = if is_even d then split (shift_right d 1) (r + 1) else (d, r) in
    let d, r = split n1 0 in
    let nm = modulus n in
    let witness a =
      let x = ref (modpow a d nm) in
      if equal !x one || equal !x n1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to r - 1 do
             x := rem (mul !x !x) n;
             if equal !x n1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec rounds_left k =
      if k = 0 then true
      else begin
        let a = add two (random_below prng (sub n (of_int 4))) in
        if witness a then false else rounds_left (k - 1)
      end
    in
    compare n (of_int 4) > 0 && rounds_left rounds
  end

let generate_prime prng ~bits:nbits =
  if nbits < 8 then invalid_arg "Bignum.generate_prime: need >= 8 bits";
  let rec go () =
    let c = random_bits prng nbits in
    let c = if is_even c then add c one else c in
    if is_probable_prime prng c then c else go ()
  in
  go ()

(* Both codecs stream bits through an accumulator that never holds more
   than one limb plus one byte, packing or unpacking in a single pass. *)
let of_bytes_be b =
  let len = Bytes.length b in
  let r = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nbits = ref 0 and k = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code (Bytes.get b i) lsl !nbits);
    nbits := !nbits + 8;
    if !nbits >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      nbits := !nbits - limb_bits;
      incr k
    end
  done;
  if !nbits > 0 then r.(!k) <- !acc;
  normalize r

let to_bytes_be ?size a =
  let nbytes = max 1 ((bits a + 7) / 8) in
  let total =
    match size with
    | None -> nbytes
    | Some s ->
        if s < nbytes then invalid_arg "Bignum.to_bytes_be: size too small"
        else s
  in
  let b = Bytes.make total '\000' in
  let acc = ref 0 and nbits = ref 0 and pos = ref (total - 1) in
  Array.iter
    (fun limb ->
      acc := !acc lor (limb lsl !nbits);
      nbits := !nbits + limb_bits;
      while !nbits >= 8 do
        (* The top limb's high zero bits may run past the first byte. *)
        if !pos >= 0 then Bytes.set b !pos (Char.chr (!acc land 0xff));
        acc := !acc lsr 8;
        nbits := !nbits - 8;
        decr pos
      done)
    a;
  if !nbits > 0 && !pos >= 0 then Bytes.set b !pos (Char.chr !acc);
  b

let of_string s =
  if s = "" then invalid_arg "Bignum.of_string: empty";
  let v = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Bignum.of_string: not a digit"
      else v := add (mul !v (of_int 10)) (of_int (Char.code c - Char.code '0')))
    s;
  !v

let to_string a =
  if is_zero a then "0"
  else begin
    (* Peel 7 decimal digits at a time (10^7 < 2^26). *)
    let chunk = 10_000_000 in
    let rec go v acc =
      if is_zero v then acc
      else begin
        let q, r = divmod_small v chunk in
        if is_zero q then string_of_int r :: acc
        else go q (Printf.sprintf "%07d" r :: acc)
      end
    in
    String.concat "" (go a [])
  end

let to_hex a =
  if is_zero a then "0"
  else begin
    let s = Hex.encode (Bytes.unsafe_to_string (to_bytes_be a)) in
    (* Strip one possible leading zero nibble for a canonical form. *)
    if s.[0] = '0' then String.sub s 1 (String.length s - 1) else s
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)
