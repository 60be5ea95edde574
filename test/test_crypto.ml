(* Tests for the crypto substrate: PRNG, bignum arithmetic, SHA-256 test
   vectors, RSA signatures, keystore and certificates. *)

open Peertrust_crypto

let bn = Alcotest.testable Bignum.pp Bignum.equal

(* ------------------------------------------------------------------ *)
(* PRNG *)

let test_prng_deterministic () =
  let a = Prng.create 7L and b = Prng.create 7L in
  for _ = 1 to 10 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_bound () =
  let g = Prng.create 1L in
  for _ = 1 to 1000 do
    let v = Prng.next_int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_split_independent () =
  let g = Prng.create 3L in
  let h = Prng.split g in
  Alcotest.(check bool) "streams differ" true
    (Prng.next_int64 g <> Prng.next_int64 h)

(* ------------------------------------------------------------------ *)
(* Bignum basics *)

let test_bignum_of_to_int () =
  List.iter
    (fun i ->
      match Bignum.to_int_opt (Bignum.of_int i) with
      | Some j -> Alcotest.(check int) "roundtrip" i j
      | None -> Alcotest.fail "fits in int")
    [ 0; 1; 2; 255; 256; 65535; 1 lsl 26; (1 lsl 26) - 1; 123456789; max_int ]

let test_bignum_compare () =
  let a = Bignum.of_int 100 and b = Bignum.of_int 200 in
  Alcotest.(check bool) "lt" true (Bignum.compare a b < 0);
  Alcotest.(check bool) "gt" true (Bignum.compare b a > 0);
  Alcotest.(check bool) "eq" true (Bignum.compare a a = 0);
  Alcotest.(check bool) "zero smallest" true
    (Bignum.compare Bignum.zero (Bignum.of_int 1) < 0)

let test_bignum_bits () =
  Alcotest.(check int) "bits 0" 0 (Bignum.bits Bignum.zero);
  Alcotest.(check int) "bits 1" 1 (Bignum.bits Bignum.one);
  Alcotest.(check int) "bits 255" 8 (Bignum.bits (Bignum.of_int 255));
  Alcotest.(check int) "bits 256" 9 (Bignum.bits (Bignum.of_int 256));
  Alcotest.(check int) "bits 2^40" 41 (Bignum.bits (Bignum.of_int (1 lsl 40)))

let test_bignum_add_sub_small () =
  let a = Bignum.of_int 123456789 and b = Bignum.of_int 987654321 in
  Alcotest.(check bn) "add" (Bignum.of_int 1111111110) (Bignum.add a b);
  Alcotest.(check bn) "sub" (Bignum.of_int 864197532) (Bignum.sub b a);
  Alcotest.check_raises "negative sub rejected"
    (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (Bignum.sub a b))

let test_bignum_mul_small () =
  let a = Bignum.of_int 123456 and b = Bignum.of_int 654321 in
  Alcotest.(check bn) "mul" (Bignum.of_int (123456 * 654321)) (Bignum.mul a b);
  Alcotest.(check bn) "mul by zero" Bignum.zero (Bignum.mul a Bignum.zero)

let test_bignum_large_decimal () =
  (* 2^128 computed by repeated doubling; known decimal value. *)
  let v = ref Bignum.one in
  for _ = 1 to 128 do
    v := Bignum.add !v !v
  done;
  Alcotest.(check string) "2^128"
    "340282366920938463463374607431768211456"
    (Bignum.to_string !v);
  Alcotest.(check bn) "decimal parse roundtrip" !v
    (Bignum.of_string "340282366920938463463374607431768211456")

let test_bignum_shift () =
  let a = Bignum.of_int 0b1011 in
  Alcotest.(check bn) "shl 3" (Bignum.of_int 0b1011000) (Bignum.shift_left a 3);
  Alcotest.(check bn) "shr 2" (Bignum.of_int 0b10) (Bignum.shift_right a 2);
  Alcotest.(check bn) "shr everything" Bignum.zero (Bignum.shift_right a 10);
  let big = Bignum.shift_left Bignum.one 100 in
  Alcotest.(check bn) "shl/shr inverse" Bignum.one (Bignum.shift_right big 100)

let test_bignum_divmod_small_values () =
  List.iter
    (fun (a, b) ->
      let q, r = Bignum.divmod (Bignum.of_int a) (Bignum.of_int b) in
      Alcotest.(check bn) (Printf.sprintf "%d/%d q" a b) (Bignum.of_int (a / b)) q;
      Alcotest.(check bn) (Printf.sprintf "%d/%d r" a b) (Bignum.of_int (a mod b)) r)
    [ (0, 3); (7, 3); (100, 10); (1 lsl 40, 7); (999999937, 997); (17, 100) ]

let test_bignum_divmod_multi_limb () =
  (* (2^200 + 12345) / (2^100 + 678) — check q*b + r = a and r < b. *)
  let a = Bignum.add (Bignum.shift_left Bignum.one 200) (Bignum.of_int 12345) in
  let b = Bignum.add (Bignum.shift_left Bignum.one 100) (Bignum.of_int 678) in
  let q, r = Bignum.divmod a b in
  Alcotest.(check bn) "q*b + r = a" a (Bignum.add (Bignum.mul q b) r);
  Alcotest.(check bool) "r < b" true (Bignum.compare r b < 0)

let test_bignum_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod Bignum.one Bignum.zero))

let test_bignum_modpow_small () =
  let m = Bignum.modulus (Bignum.of_int 1000000007) in
  Alcotest.(check bn) "3^0" Bignum.one (Bignum.modpow (Bignum.of_int 3) Bignum.zero m);
  Alcotest.(check bn) "3^4 mod p" (Bignum.of_int 81)
    (Bignum.modpow (Bignum.of_int 3) (Bignum.of_int 4) m);
  (* Fermat: a^(p-1) = 1 mod p for prime p. *)
  Alcotest.(check bn) "fermat" Bignum.one
    (Bignum.modpow (Bignum.of_int 12345) (Bignum.of_int 1000000006) m)

let test_bignum_gcd () =
  Alcotest.(check bn) "gcd" (Bignum.of_int 6)
    (Bignum.gcd (Bignum.of_int 48) (Bignum.of_int 18));
  Alcotest.(check bn) "gcd with zero" (Bignum.of_int 5)
    (Bignum.gcd (Bignum.of_int 5) Bignum.zero)

let test_bignum_modinv () =
  (match Bignum.modinv (Bignum.of_int 3) (Bignum.of_int 11) with
  | Some v -> Alcotest.(check bn) "3^-1 mod 11 = 4" (Bignum.of_int 4) v
  | None -> Alcotest.fail "inverse exists");
  Alcotest.(check bool) "no inverse when not coprime" true
    (Bignum.modinv (Bignum.of_int 6) (Bignum.of_int 9) = None)

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_string "123456789012345678901234567890" in
  Alcotest.(check bn) "bytes roundtrip" v (Bignum.of_bytes_be (Bignum.to_bytes_be v));
  let padded = Bignum.to_bytes_be ~size:32 v in
  Alcotest.(check int) "padded size" 32 (Bytes.length padded);
  Alcotest.(check bn) "padded roundtrip" v (Bignum.of_bytes_be padded)

let test_bignum_primality_known () =
  let g = Prng.create 5L in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "%d prime" p) true
        (Bignum.is_probable_prime g (Bignum.of_int p)))
    [ 2; 3; 5; 7; 97; 251; 257; 65537; 1000000007 ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "%d composite" c) false
        (Bignum.is_probable_prime g (Bignum.of_int c)))
    [ 0; 1; 4; 9; 91; 221; 65536; 1000000008; 561; 41041 ]
(* 561 and 41041 are Carmichael numbers. *)

let test_bignum_generate_prime () =
  let g = Prng.create 11L in
  let p = Bignum.generate_prime g ~bits:64 in
  Alcotest.(check int) "exact bit size" 64 (Bignum.bits p);
  Alcotest.(check bool) "probably prime" true (Bignum.is_probable_prime g p)

let test_bignum_random_below () =
  let g = Prng.create 13L in
  let bound = Bignum.of_int 1000 in
  for _ = 1 to 200 do
    let v = Bignum.random_below g bound in
    Alcotest.(check bool) "below bound" true (Bignum.compare v bound < 0)
  done

(* ------------------------------------------------------------------ *)
(* Bignum properties *)

let arb_big =
  (* Random multi-limb naturals built from three 60-bit chunks. *)
  let build (a, b, c) =
    let x = Bignum.of_int a in
    let x = Bignum.add (Bignum.shift_left x 60) (Bignum.of_int b) in
    Bignum.add (Bignum.shift_left x 60) (Bignum.of_int c)
  in
  QCheck.map build
    (QCheck.triple
       (QCheck.int_range 0 (1 lsl 60))
       (QCheck.int_range 0 (1 lsl 60))
       (QCheck.int_range 0 (1 lsl 60)))

let prop_add_commutes =
  QCheck.Test.make ~name:"bignum: add commutes" ~count:200
    (QCheck.pair arb_big arb_big) (fun (a, b) ->
      Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_add_sub_roundtrip =
  QCheck.Test.make ~name:"bignum: (a+b)-b = a" ~count:200
    (QCheck.pair arb_big arb_big) (fun (a, b) ->
      Bignum.equal a (Bignum.sub (Bignum.add a b) b))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bignum: mul matches int on small values" ~count:200
    (QCheck.pair (QCheck.int_range 0 (1 lsl 30)) (QCheck.int_range 0 (1 lsl 30)))
    (fun (a, b) ->
      Bignum.equal (Bignum.of_int (a * b)) (Bignum.mul (Bignum.of_int a) (Bignum.of_int b)))

let prop_divmod_invariant =
  QCheck.Test.make ~name:"bignum: a = q*b + r, r < b" ~count:200
    (QCheck.pair arb_big arb_big) (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"bignum: divmod matches int" ~count:500
    (QCheck.pair (QCheck.int_range 0 (1 lsl 60)) (QCheck.int_range 1 (1 lsl 60)))
    (fun (a, b) ->
      let q, r = Bignum.divmod (Bignum.of_int a) (Bignum.of_int b) in
      Bignum.equal q (Bignum.of_int (a / b)) && Bignum.equal r (Bignum.of_int (a mod b)))

let prop_shift_is_mul_pow2 =
  QCheck.Test.make ~name:"bignum: shl k = mul 2^k" ~count:100
    (QCheck.pair arb_big (QCheck.int_range 0 80)) (fun (a, k) ->
      let pow2 = Bignum.shift_left Bignum.one k in
      Bignum.equal (Bignum.shift_left a k) (Bignum.mul a pow2))

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"bignum: decimal roundtrip" ~count:200 arb_big
    (fun a -> Bignum.equal a (Bignum.of_string (Bignum.to_string a)))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bignum: bytes roundtrip" ~count:200 arb_big
    (fun a -> Bignum.equal a (Bignum.of_bytes_be (Bignum.to_bytes_be a)))

let prop_modpow_matches_naive =
  QCheck.Test.make ~name:"bignum: modpow matches naive" ~count:100
    (QCheck.triple (QCheck.int_range 0 1000) (QCheck.int_range 0 40)
       (QCheck.int_range 2 10000)) (fun (b, e, m) ->
      let rec naive acc k = if k = 0 then acc else naive (acc * b mod m) (k - 1) in
      Bignum.equal
        (Bignum.of_int (naive 1 e))
        (Bignum.modpow (Bignum.of_int b) (Bignum.of_int e)
           (Bignum.modulus (Bignum.of_int m))))

let bignum_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_add_commutes;
      prop_add_sub_roundtrip;
      prop_mul_matches_int;
      prop_divmod_invariant;
      prop_divmod_matches_int;
      prop_shift_is_mul_pow2;
      prop_decimal_roundtrip;
      prop_bytes_roundtrip;
      prop_modpow_matches_naive;
    ]

(* ------------------------------------------------------------------ *)
(* SHA-256 — FIPS 180-4 test vectors *)

let test_sha256_vectors () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  Alcotest.(check string) "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_block_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries must differ. *)
  let digests =
    List.map (fun n -> Sha256.hex (String.make n 'x')) [ 54; 55; 56; 57; 63; 64; 65 ]
  in
  let uniq = List.sort_uniq String.compare digests in
  Alcotest.(check int) "all distinct" (List.length digests) (List.length uniq)

let prop_sha256_deterministic =
  QCheck.Test.make ~name:"sha256: deterministic" ~count:100
    QCheck.printable_string (fun s -> String.equal (Sha256.hex s) (Sha256.hex s))

let prop_sha256_injective_in_practice =
  QCheck.Test.make ~name:"sha256: distinct strings hash apart" ~count:100
    (QCheck.pair QCheck.printable_string QCheck.printable_string)
    (fun (a, b) ->
      QCheck.assume (not (String.equal a b));
      not (String.equal (Sha256.hex a) (Sha256.hex b)))

(* ------------------------------------------------------------------ *)
(* RSA *)

let shared_keypair =
  lazy (Rsa.generate ~bits:320 (Prng.create 99L))

let test_rsa_sign_verify () =
  let kp = Lazy.force shared_keypair in
  let msg = "student(\"Alice\") @ \"UIUC\"" in
  let s = Rsa.sign kp msg in
  Alcotest.(check bool) "verifies" true (Rsa.verify kp.Rsa.public msg s)

let test_rsa_reject_tampered_message () =
  let kp = Lazy.force shared_keypair in
  let s = Rsa.sign kp "genuine" in
  Alcotest.(check bool) "tampered msg rejected" false
    (Rsa.verify kp.Rsa.public "forged" s)

let test_rsa_reject_tampered_signature () =
  let kp = Lazy.force shared_keypair in
  let s = Rsa.sign kp "msg" in
  let s' = Bignum.add s Bignum.one in
  Alcotest.(check bool) "tampered sig rejected" false
    (Rsa.verify kp.Rsa.public "msg" s')

let test_rsa_reject_wrong_key () =
  let kp1 = Lazy.force shared_keypair in
  let kp2 = Rsa.generate ~bits:320 (Prng.create 100L) in
  let s = Rsa.sign kp1 "msg" in
  Alcotest.(check bool) "wrong key rejected" false (Rsa.verify kp2.Rsa.public "msg" s)

let test_rsa_oversize_signature_rejected () =
  let kp = Lazy.force shared_keypair in
  Alcotest.(check bool) "sig >= n rejected" false
    (Rsa.verify kp.Rsa.public "msg" kp.Rsa.public.Rsa.n)

let test_rsa_deterministic_keygen () =
  let a = Rsa.generate ~bits:320 (Prng.create 7L) in
  let b = Rsa.generate ~bits:320 (Prng.create 7L) in
  Alcotest.(check bn) "same modulus from same seed" a.Rsa.public.Rsa.n
    b.Rsa.public.Rsa.n

let test_rsa_min_bits_enforced () =
  Alcotest.check_raises "too small" (Invalid_argument "Rsa.generate: need >= 288 bits")
    (fun () -> ignore (Rsa.generate ~bits:128 (Prng.create 1L)))

(* ------------------------------------------------------------------ *)
(* Keystore and certificates *)

let test_keystore_stable_keys () =
  let ks = Keystore.create ~bits:320 ~seed:42L () in
  let k1 = Keystore.public ks "UIUC" in
  let k2 = Keystore.public ks "UIUC" in
  Alcotest.(check bn) "same key on re-request" k1.Rsa.n k2.Rsa.n;
  (* Order independence: a fresh store queried in a different order yields
     the same keys. *)
  let ks2 = Keystore.create ~bits:320 ~seed:42L () in
  let _ = Keystore.public ks2 "VISA" in
  let k1' = Keystore.public ks2 "UIUC" in
  Alcotest.(check bn) "order independent" k1.Rsa.n k1'.Rsa.n

let test_keystore_serials_and_revocation () =
  let ks = Keystore.create ~bits:320 ~seed:1L () in
  let s1 = Keystore.fresh_serial ks and s2 = Keystore.fresh_serial ks in
  Alcotest.(check bool) "serials increase" true (s2 > s1);
  Keystore.revoke ks ~serial:s1;
  Alcotest.(check bool) "revoked" true (Keystore.is_revoked ks ~serial:s1);
  Alcotest.(check bool) "other untouched" false (Keystore.is_revoked ks ~serial:s2)

let parse_rule = Peertrust_dlp.Parser.parse_rule

let test_cert_issue_verify () =
  let ks = Keystore.create ~bits:320 ~seed:5L () in
  let rule = parse_rule {|student("Alice") @ "UIUC" signedBy ["UIUC"].|} in
  match Cert.issue ks rule with
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  | Ok cert -> (
      match Cert.verify ks cert with
      | Ok () -> ()
      | Error e -> Alcotest.failf "verify failed: %a" Cert.pp_error e)

let test_cert_unsigned_rule_rejected () =
  let ks = Keystore.create ~bits:320 ~seed:5L () in
  let rule = parse_rule {|freeCourse(cs101).|} in
  match Cert.issue ks rule with
  | Error Cert.Unsigned_rule -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unsigned_rule"

let test_cert_tamper_detected () =
  let ks = Keystore.create ~bits:320 ~seed:5L () in
  let rule = parse_rule {|student("Alice") @ "UIUC" signedBy ["UIUC"].|} in
  let forged = parse_rule {|student("Mallory") @ "UIUC" signedBy ["UIUC"].|} in
  match Cert.issue ks rule with
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  | Ok cert -> (
      let tampered = { cert with Cert.rule = forged } in
      match Cert.verify ks tampered with
      | Error (Cert.Bad_signature "UIUC") -> ()
      | Ok () -> Alcotest.fail "tampered cert accepted"
      | Error e -> Alcotest.failf "unexpected error: %a" Cert.pp_error e)

let test_cert_multi_signer () =
  let ks = Keystore.create ~bits:320 ~seed:5L () in
  let rule = parse_rule {|joint("X") signedBy ["A", "B"].|} in
  match Cert.issue ks rule with
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  | Ok cert ->
      Alcotest.(check int) "two signatures" 2 (List.length cert.Cert.signatures);
      (match Cert.verify ks cert with
      | Ok () -> ()
      | Error e -> Alcotest.failf "verify failed: %a" Cert.pp_error e);
      (* Dropping one signature must be detected. *)
      let partial =
        { cert with Cert.signatures = [ List.hd cert.Cert.signatures ] }
      in
      (match Cert.verify ks partial with
      | Error (Cert.Missing_signature "B") -> ()
      | Ok () -> Alcotest.fail "partial signatures accepted"
      | Error e -> Alcotest.failf "unexpected: %a" Cert.pp_error e)

let test_cert_validity_window () =
  let ks = Keystore.create ~bits:320 ~seed:5L () in
  let rule = parse_rule {|badge("Alice") signedBy ["CSP"].|} in
  match Cert.issue ks ~not_before:10 ~not_after:20 rule with
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  | Ok cert ->
      (* Verified inside the window first: the keystore has then
         recorded the signature, and the window is still checked. *)
      (match Cert.verify ks ~now:15 cert with
      | Ok () -> ()
      | Error e -> Alcotest.failf "in-window failed: %a" Cert.pp_error e);
      (match Cert.verify ks ~now:5 cert with
      | Error (Cert.Expired _) -> ()
      | _ -> Alcotest.fail "before window accepted");
      (match Cert.verify ks ~now:25 cert with
      | Error (Cert.Expired _) -> ()
      | _ -> Alcotest.fail "after window accepted")

let test_cert_revocation () =
  let ks = Keystore.create ~bits:320 ~seed:5L () in
  let rule = parse_rule {|visaCard("IBM") signedBy ["VISA"].|} in
  match Cert.issue ks rule with
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  | Ok cert -> (
      (* Verified before the revocation: a recorded signature does not
         outlive its certificate's revocation. *)
      Alcotest.(check bool) "valid before" true (Cert.verify ks cert = Ok ());
      Keystore.revoke ks ~serial:cert.Cert.serial;
      match Cert.verify ks cert with
      | Error (Cert.Revoked _) -> ()
      | _ -> Alcotest.fail "revoked cert accepted")

let counter name =
  Peertrust_obs.Registry.counter_value (Peertrust_obs.Obs.snapshot ()) name

(* [f ()]'s result, and how far it moved [crypto.rsa_verifies] and
   [crypto.signature_checks]. *)
let rsa_moves f =
  let rsa = counter "crypto.rsa_verifies"
  and checks = counter "crypto.signature_checks" in
  let r = f () in
  (r, counter "crypto.rsa_verifies" - rsa, counter "crypto.signature_checks" - checks)

let test_cert_rsa_once_per_signature () =
  let ks = Keystore.create ~bits:320 ~seed:5L () in
  let rule = parse_rule {|joint("X") signedBy ["A", "B"].|} in
  match Cert.issue ks rule with
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  | Ok cert ->
      let check what expected (verdict, rsa, checks) (want_rsa, want_checks) =
        Alcotest.(check bool) (what ^ ": verdict") true (verdict = expected);
        Alcotest.(check int) (what ^ ": RSA verifies") want_rsa rsa;
        Alcotest.(check int) (what ^ ": signature checks") want_checks checks
      in
      let verify c () = Cert.verify ks c in
      check "first check" (Ok ()) (rsa_moves (verify cert)) (2, 2);
      for _ = 1 to 3 do
        check "repeated valid check" (Ok ()) (rsa_moves (verify cert)) (0, 2)
      done;
      (* A forged signature pays RSA on every check: a rejected one is
         never recorded. *)
      let forged =
        {
          cert with
          Cert.signatures =
            List.map
              (fun (s, v) -> (s, if s = "B" then Bignum.add v Bignum.one else v))
              cert.Cert.signatures;
        }
      in
      for _ = 1 to 3 do
        check "repeated forged check" (Error (Cert.Bad_signature "B"))
          (rsa_moves (verify forged)) (1, 2)
      done;
      (* The keystore's check on its own, as Proof.verify uses it. *)
      let msg = Cert.payload cert and sig_a = List.assoc "A" cert.Cert.signatures in
      check "keystore: valid" true
        (rsa_moves (fun () -> Keystore.verify ks ~signer:"A" msg sig_a)) (0, 1);
      for _ = 1 to 2 do
        check "keystore: another signer's key" false
          (rsa_moves (fun () -> Keystore.verify ks ~signer:"B" msg sig_a)) (1, 1)
      done

let test_cert_payload_covers_validity () =
  let ks = Keystore.create ~bits:320 ~seed:5L () in
  let rule = parse_rule {|badge("Alice") signedBy ["CSP"].|} in
  match Cert.issue ks ~not_after:20 rule with
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  | Ok cert -> (
      (* Extending the validity window must invalidate the signature. *)
      let extended = { cert with Cert.not_after = 1000 } in
      match Cert.verify ks ~now:0 extended with
      | Error (Cert.Bad_signature _) -> ()
      | Ok () -> Alcotest.fail "window extension accepted"
      | Error e -> Alcotest.failf "unexpected: %a" Cert.pp_error e)

let test_bignum_misc_edges () =
  Alcotest.check_raises "to_bytes_be size too small"
    (Invalid_argument "Bignum.to_bytes_be: size too small") (fun () ->
      ignore (Bignum.to_bytes_be ~size:1 (Bignum.of_int 100000)));
  Alcotest.check_raises "of_string rejects junk"
    (Invalid_argument "Bignum.of_string: not a digit") (fun () ->
      ignore (Bignum.of_string "12a3"));
  Alcotest.check_raises "of_int rejects negatives"
    (Invalid_argument "Bignum.of_int: negative") (fun () ->
      ignore (Bignum.of_int (-1)));
  Alcotest.(check bn) "modpow with modulus one" Bignum.zero
    (Bignum.modpow (Bignum.of_int 5) (Bignum.of_int 3)
       (Bignum.modulus Bignum.one));
  Alcotest.(check (option int)) "to_int_opt overflow" None
    (Bignum.to_int_opt (Bignum.shift_left Bignum.one 80));
  Alcotest.(check string) "hex of zero" "0" (Bignum.to_hex Bignum.zero)

(* ------------------------------------------------------------------ *)
(* Wire format *)

let wire_fixture () =
  let ks = Keystore.create ~bits:320 ~seed:21L () in
  let rule =
    parse_rule {|student("Alice") @ "UIUC Registrar" signedBy ["UIUC Registrar"].|}
  in
  match Cert.issue ks ~not_before:5 ~not_after:500 rule with
  | Ok cert -> (ks, cert)
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e

let test_wire_roundtrip () =
  let ks, cert = wire_fixture () in
  let text = Wire.encode cert in
  match Wire.decode text with
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e
  | Ok cert' ->
      Alcotest.(check int) "serial" cert.Cert.serial cert'.Cert.serial;
      Alcotest.(check int) "not_before" 5 cert'.Cert.not_before;
      Alcotest.(check int) "not_after" 500 cert'.Cert.not_after;
      Alcotest.(check bool) "rule preserved" true
        (Peertrust_dlp.Rule.equal cert.Cert.rule cert'.Cert.rule);
      (match Cert.verify ks ~now:10 cert' with
      | Ok () -> ()
      | Error e -> Alcotest.failf "imported cert does not verify: %a" Cert.pp_error e)

let test_wire_multi_signer_names () =
  (* Names with spaces and colons survive the hex encoding. *)
  let ks = Keystore.create ~bits:320 ~seed:22L () in
  let rule = parse_rule {|joint("x") signedBy ["Weird: Name", "An other"].|} in
  match Cert.issue ks rule with
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  | Ok cert -> (
      match Wire.decode (Wire.encode cert) with
      | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e
      | Ok cert' ->
          Alcotest.(check (list string)) "issuer names"
            [ "Weird: Name"; "An other" ]
            (List.map fst cert'.Cert.signatures))

let test_wire_wallet () =
  let ks, cert1 = wire_fixture () in
  let rule2 = parse_rule {|member("Bob") @ "ELENA" signedBy ["ELENA"].|} in
  let cert2 =
    match Cert.issue ks rule2 with Ok c -> c | Error _ -> Alcotest.fail "issue"
  in
  let wallet = Wire.encode_many [ cert1; cert2 ] in
  match Wire.decode_many wallet with
  | Ok [ a; b ] ->
      Alcotest.(check int) "first serial" cert1.Cert.serial a.Cert.serial;
      Alcotest.(check int) "second serial" cert2.Cert.serial b.Cert.serial
  | Ok _ -> Alcotest.fail "expected two certificates"
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e

let test_wire_tamper_detected_after_import () =
  let ks, cert = wire_fixture () in
  let text = Wire.encode cert in
  (* Swap the subject inside the encoded rule line: Alice -> Mallory. *)
  let replace ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if !i + m <= n && String.sub s !i m = sub then begin
        Buffer.add_string buf by;
        i := !i + m
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  let tampered = replace ~sub:{|"Alice"|} ~by:{|"Mallory"|} text in
  match Wire.decode tampered with
  | Error e -> Alcotest.failf "should still parse: %a" Wire.pp_error e
  | Ok cert' -> (
      Alcotest.(check bool) "rule changed" false
        (Peertrust_dlp.Rule.equal cert.Cert.rule cert'.Cert.rule);
      match Cert.verify ks ~now:10 cert' with
      | Error (Cert.Bad_signature _) -> ()
      | Ok () -> Alcotest.fail "tampered import verified"
      | Error e -> Alcotest.failf "unexpected error: %a" Cert.pp_error e)

(* A [sig:] line's hex must be exactly what [Bignum.to_hex] writes.
   Spellings that name the same signature ("d_" for the byte 0d, upper
   case, a leading zero nibble) are refused, so no second hex spelling
   of an issued certificate's signature decodes. *)

(* The first of a few seed-2004 certificates (384-bit keys) whose
   signature hex holds the byte 0d, with that pair's offset in the hex. *)
let cert_with_0d_byte () =
  let ks = Keystore.create ~seed:2004L () in
  let rec find = function
    | [] -> Alcotest.fail "no signature holds the byte 0d"
    | who :: rest -> (
        let rule =
          parse_rule (Printf.sprintf {|student("%s") @ "UIUC" signedBy ["UIUC"].|} who)
        in
        match Cert.issue ks rule with
        | Ok ({ Cert.signatures = [ (_, s) ]; _ } as cert) -> (
            let h = Bignum.to_hex s in
            (* to_hex drops a leading zero nibble, so bytes start at odd
               offsets when the length is odd *)
            let rec byte i =
              if i + 2 > String.length h then None
              else if String.sub h i 2 = "0d" then Some i
              else byte (i + 2)
            in
            match byte (String.length h land 1) with
            | Some i -> (ks, cert, h, i)
            | None -> find rest)
        | _ -> Alcotest.fail "issue failed")
  in
  find [ "Alice"; "Bob"; "Carol"; "Dave"; "Eve" ]

let test_wire_canonical_hex () =
  let ks, cert, h, i = cert_with_0d_byte () in
  let text = Wire.encode cert in
  (match Wire.decode text with
  | Ok c -> Alcotest.(check bool) "original verifies" true (Cert.verify ks c = Ok ())
  | Error e -> Alcotest.failf "original refused: %a" Wire.pp_error e);
  let sig_prefix = "sig: " ^ Hex.encode "UIUC" ^ ":" in
  let respell label h' =
    let text' =
      String.split_on_char '\n' text
      |> List.map (fun l -> if l = sig_prefix ^ h then sig_prefix ^ h' else l)
      |> String.concat "\n"
    in
    Alcotest.(check bool) (label ^ ": a different text") false (text' = text);
    match Wire.decode text' with
    | Error (Wire.Malformed _) -> ()
    | Ok _ -> Alcotest.failf "%s: decoded %S" label text'
  in
  respell "0d written d_"
    (String.sub h 0 i ^ "d_" ^ String.sub h (i + 2) (String.length h - i - 2));
  respell "upper case" (String.uppercase_ascii h);
  respell "leading zero nibble" ("0" ^ h)

(* The integer fields accept only what [%d] prints.  A fresh keystore's
   first certificate has serial 1 and not-before 0; each respelling
   below names the same certificate, so its signature would verify. *)
let test_wire_canonical_ints () =
  let ks = Keystore.create ~bits:320 ~seed:23L () in
  let cert =
    match Cert.issue ks (parse_rule {|member("Bob") @ "ELENA" signedBy ["ELENA"].|}) with
    | Ok c -> c
    | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  in
  Alcotest.(check (pair int int)) "serial 1, not-before 0" (1, 0)
    (cert.Cert.serial, cert.Cert.not_before);
  let text = Wire.encode cert in
  (match Wire.decode text with
  | Ok c -> Alcotest.(check bool) "original verifies" true (Cert.verify ks c = Ok ())
  | Error e -> Alcotest.failf "original refused: %a" Wire.pp_error e);
  let respell line line' =
    let text' =
      String.split_on_char '\n' text
      |> List.map (fun l -> if l = line then line' else l)
      |> String.concat "\n"
    in
    Alcotest.(check bool) (line' ^ ": a different text") false (text' = text);
    match Wire.decode text' with
    | Error (Wire.Malformed _) -> ()
    | Ok _ -> Alcotest.failf "%s: decoded" line'
  in
  List.iter (respell "serial: 1") [ "serial: 0x1"; "serial: 0_1"; "serial: 01" ];
  List.iter (respell "not-before: 0") [ "not-before: +0"; "not-before: -0" ]

(* Inside a block only the lines [encode] writes are accepted.  Each
   respelling below decodes, at a decoder that trims lines, skips blank
   ones and re-parses the rule line, to the same seed-2004 certificate,
   whose signature would verify. *)
let test_wire_one_text () =
  let ks = Keystore.create ~seed:2004L () in
  let cert =
    match Cert.issue ks (parse_rule {|student("Alice") @ "UIUC" signedBy ["UIUC"].|}) with
    | Ok c -> c
    | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e
  in
  let text = Wire.encode cert in
  (match Wire.decode text with
  | Ok c -> Alcotest.(check bool) "original verifies" true (Cert.verify ks c = Ok ())
  | Error e -> Alcotest.failf "original refused: %a" Wire.pp_error e);
  let lines = String.split_on_char '\n' text in
  let respell label f =
    let text' = String.concat "\n" (List.concat_map f lines) in
    Alcotest.(check bool) (label ^ ": a different text") false (text' = text);
    match Wire.decode text' with
    | Error (Wire.Malformed _) -> ()
    | Ok _ -> Alcotest.failf "%s: decoded %S" label text'
  in
  let rule_line = "rule: " ^ Peertrust_dlp.Rule.to_string cert.Cert.rule in
  respell "serial: 1 with trailing blanks" (fun l ->
      [ (if l = "serial: 1" then "serial: 1  \t" else l) ]);
  respell "student (" (fun l ->
      if l = rule_line then
        [ {|rule: student ("Alice") @ "UIUC" signedBy ["UIUC"].|} ]
      else [ l ]);
  respell "blank line before END" (fun l ->
      if l = "-----END PEERTRUST CERTIFICATE-----" then [ ""; l ] else [ l ]);
  (* Between the blocks of a wallet, blank lines are still skipped. *)
  match Wire.decode_many ("\n" ^ text ^ "\n  \n" ^ text) with
  | Ok [ a; b ] ->
      Alcotest.(check (list string)) "wallet with blank lines" [ text; text ]
        [ Wire.encode a; Wire.encode b ]
  | Ok _ -> Alcotest.fail "expected two certificates"
  | Error e -> Alcotest.failf "wallet refused: %a" Wire.pp_error e

let prop_wire_int_roundtrip =
  let rule = parse_rule {|member("Bob") @ "ELENA" signedBy ["ELENA"].|} in
  QCheck.Test.make ~name:"wire: integer fields roundtrip" ~count:200
    QCheck.(oneof [ always min_int; always max_int; int ])
    (fun i ->
      let cert =
        {
          Cert.serial = i;
          rule;
          not_before = i;
          not_after = i;
          signatures = [ ("ELENA", Bignum.of_int 7) ];
        }
      in
      match Wire.decode (Wire.encode cert) with
      | Ok c ->
          c.Cert.serial = i && c.Cert.not_before = i && c.Cert.not_after = i
      | Error _ -> false)

let test_wire_malformed () =
  let expect src =
    match Wire.decode src with
    | Error (Wire.Malformed _) -> ()
    | Ok _ -> Alcotest.failf "accepted malformed input: %s" src
  in
  expect "";
  expect "-----BEGIN PEERTRUST CERTIFICATE-----\nserial: 1\n";
  expect "junk\n-----BEGIN PEERTRUST CERTIFICATE-----\n-----END PEERTRUST CERTIFICATE-----\n";
  expect
    "-----BEGIN PEERTRUST CERTIFICATE-----\nserial: x\n-----END PEERTRUST CERTIFICATE-----\n";
  (* An integer literal out of int range is a bad rule, not an
     exception. *)
  expect
    "-----BEGIN PEERTRUST CERTIFICATE-----\nserial: 1\nnot-before: 0\n\
     not-after: 9\nrule: p(99999999999999999999) signedBy [\"CA\"].\n\
     -----END PEERTRUST CERTIFICATE-----\n"

(* ------------------------------------------------------------------ *)
(* Kernels against the reference arithmetic in Kernel_ref *)

(* Odd and even moduli of one limb and of fifteen (390 bits), and 1. *)
let kernel_moduli =
  let fifteen = Bignum.shift_left Bignum.one 389 in
  [
    Bignum.of_int 1_000_003;
    Bignum.of_int 1_000_000;
    Bignum.add fifteen (Bignum.of_int 0x2f3b5);
    Bignum.add fifteen (Bignum.of_int 0x2f3b4);
    Bignum.one;
  ]

let test_modpow_reference () =
  let long_e = Bignum.sub (Bignum.shift_left Bignum.one 300) (Bignum.of_int 12345) in
  List.iter
    (fun m ->
      let md = Bignum.modulus m in
      let bases =
        [
          Bignum.zero;
          Bignum.one;
          Bignum.of_int 7;
          m;
          Bignum.add m Bignum.one;
          Bignum.add (Bignum.mul m (Bignum.of_int 3)) (Bignum.of_int 7);
          Bignum.mul m m;
        ]
      in
      let exps = [ Bignum.zero; Bignum.one; Bignum.two; Bignum.of_int 65537; long_e ] in
      List.iter
        (fun b ->
          List.iter
            (fun e ->
              Alcotest.(check bn)
                (Printf.sprintf "%s^%s mod %s" (Bignum.to_hex b) (Bignum.to_hex e)
                   (Bignum.to_hex m))
                (Kernel_ref.modpow b e m) (Bignum.modpow b e md))
            exps)
        bases)
    kernel_moduli

let test_rsa_crt_matches_reference () =
  List.iter
    (fun kp ->
      List.iter
        (fun msg ->
          let pub = kp.Rsa.public in
          Alcotest.(check bn) msg
            (Kernel_ref.modpow (Kernel_ref.pad pub msg) kp.Rsa.d pub.Rsa.n)
            (Rsa.sign kp msg))
        [ ""; "msg"; "student(\"Alice\") @ \"UIUC\"" ])
    [ Lazy.force shared_keypair; Rsa.generate (Prng.create 2004L) ]

let test_bytes_leading_zeros () =
  let b = Bytes.of_string "\000\000\001\002" in
  Alcotest.(check bn) "value" (Bignum.of_int 258) (Bignum.of_bytes_be b);
  Alcotest.(check bytes) "sized" b (Bignum.to_bytes_be ~size:4 (Bignum.of_int 258));
  Alcotest.(check bytes) "minimal" (Bytes.of_string "\001\002")
    (Bignum.to_bytes_be (Bignum.of_int 258));
  Alcotest.(check bn) "empty" Bignum.zero (Bignum.of_bytes_be Bytes.empty);
  Alcotest.(check bytes) "zero" (Bytes.of_string "\000") (Bignum.to_bytes_be Bignum.zero)

(* Keys and signatures are byte-identical to those of the textbook
   kernels (plain square-and-multiply, no CRT) these replaced. *)
let test_kernel_pins () =
  let ks = Keystore.create ~seed:2004L () in
  Alcotest.(check string) "modulus"
    "49cf264a8b968c4095e44f047439a0f0d2b217d9bd70d37437efe30648709076ea61b7bf5147525987241edfa7a2c9af"
    (Bignum.to_hex (Keystore.public ks "UIUC").Rsa.n);
  let rule = parse_rule {|student("Alice") @ "UIUC" signedBy ["UIUC"].|} in
  match Cert.issue ks ~not_after:500 rule with
  | Ok { Cert.signatures = [ ("UIUC", s) ]; _ } ->
      Alcotest.(check string) "signature"
        "232dc808e49c20f21d9358f0f96d7b5e55ddd15a001bca105a37e1ae11c0d0503e0cfe51fe1fab25e5a8b1a3d1b9aeab"
        (Bignum.to_hex s)
  | Ok _ -> Alcotest.fail "expected one signature"
  | Error e -> Alcotest.failf "issue failed: %a" Cert.pp_error e

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "crypto"
    [
      ( "prng",
        [
          tc "deterministic" test_prng_deterministic;
          tc "bounded" test_prng_bound;
          tc "split" test_prng_split_independent;
        ] );
      ( "bignum",
        [
          tc "int roundtrip" test_bignum_of_to_int;
          tc "compare" test_bignum_compare;
          tc "bit length" test_bignum_bits;
          tc "add/sub" test_bignum_add_sub_small;
          tc "mul" test_bignum_mul_small;
          tc "2^128 decimal" test_bignum_large_decimal;
          tc "shifts" test_bignum_shift;
          tc "divmod small" test_bignum_divmod_small_values;
          tc "divmod multi-limb" test_bignum_divmod_multi_limb;
          tc "division by zero" test_bignum_div_by_zero;
          tc "modpow" test_bignum_modpow_small;
          tc "gcd" test_bignum_gcd;
          tc "modinv" test_bignum_modinv;
          tc "bytes roundtrip" test_bignum_bytes_roundtrip;
          tc "known primes/composites" test_bignum_primality_known;
          tc "prime generation" test_bignum_generate_prime;
          tc "random below" test_bignum_random_below;
          tc "miscellaneous edges" test_bignum_misc_edges;
        ] );
      ("bignum properties", bignum_properties);
      ( "kernels",
        [
          tc "modpow matches reference" test_modpow_reference;
          tc "CRT signing matches reference" test_rsa_crt_matches_reference;
          tc "bytes with leading zeros" test_bytes_leading_zeros;
          tc "byte-identical keys and signatures" test_kernel_pins;
        ] );
      ( "sha256",
        [
          tc "FIPS vectors" test_sha256_vectors;
          tc "padding boundaries" test_sha256_block_boundaries;
          QCheck_alcotest.to_alcotest prop_sha256_deterministic;
          QCheck_alcotest.to_alcotest prop_sha256_injective_in_practice;
        ] );
      ( "rsa",
        [
          tc "sign/verify" test_rsa_sign_verify;
          tc "tampered message" test_rsa_reject_tampered_message;
          tc "tampered signature" test_rsa_reject_tampered_signature;
          tc "wrong key" test_rsa_reject_wrong_key;
          tc "oversize signature" test_rsa_oversize_signature_rejected;
          tc "deterministic keygen" test_rsa_deterministic_keygen;
          tc "minimum key size" test_rsa_min_bits_enforced;
        ] );
      ( "keystore",
        [
          tc "stable keys" test_keystore_stable_keys;
          tc "serials and revocation" test_keystore_serials_and_revocation;
        ] );
      ( "wire",
        [
          tc "roundtrip" test_wire_roundtrip;
          tc "odd issuer names" test_wire_multi_signer_names;
          tc "wallet" test_wire_wallet;
          tc "tamper detected after import" test_wire_tamper_detected_after_import;
          tc "malformed inputs" test_wire_malformed;
          tc "signature hex has one spelling" test_wire_canonical_hex;
          tc "integers have one spelling" test_wire_canonical_ints;
          tc "one text per certificate" test_wire_one_text;
          QCheck_alcotest.to_alcotest prop_wire_int_roundtrip;
        ] );
      ( "cert",
        [
          tc "issue/verify" test_cert_issue_verify;
          tc "unsigned rejected" test_cert_unsigned_rule_rejected;
          tc "tamper detected" test_cert_tamper_detected;
          tc "multi-signer" test_cert_multi_signer;
          tc "validity window" test_cert_validity_window;
          tc "revocation" test_cert_revocation;
          tc "payload covers validity" test_cert_payload_covers_validity;
          tc "RSA once per valid signature" test_cert_rsa_once_per_signature;
        ] );
    ]
