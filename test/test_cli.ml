(* End-to-end tests of the peertrust command-line tool: the built binary
   is invoked as a subprocess (dune places it at ../bin/main.exe relative
   to the test working directory). *)

let binary =
  let candidates =
    [ Filename.concat ".." (Filename.concat "bin" "main.exe"); "bin/main.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/main.exe"

let write_temp suffix contents =
  let path = Filename.temp_file "ptcli" suffix in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

(* Run the CLI; return (exit code, stdout). *)
let run args =
  let out = Filename.temp_file "ptcli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote binary)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, contents)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let owner_program =
  {|resource("r") $ cred(Requester) @ "CA" <-{true} haveIt("r").
    haveIt("r").
    cred(X) @ "CA" <- cred(X) @ "CA" @ X.|}

let client_program = {|cred("client") @ "CA" $ true signedBy ["CA"].|}

let test_cli_parse () =
  let f = write_temp ".pt" "p(1). q(X) <- p(X)." in
  let code, out = run [ "parse"; f ] in
  Sys.remove f;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "rule count" true (contains ~sub:"2 rule(s)" out)

let test_cli_parse_error () =
  let f = write_temp ".pt" "p(1" in
  let code, out = run [ "parse"; f ] in
  Sys.remove f;
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "syntax error reported" true
    (contains ~sub:"syntax error" out)

let test_cli_eval () =
  let f = write_temp ".pt" "p(1). p(2)." in
  let code, out = run [ "eval"; f; "p(X)" ] in
  Sys.remove f;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "answers" true
    (contains ~sub:"{X = 1}" out && contains ~sub:"{X = 2}" out)

let test_cli_eval_tabled () =
  let f =
    write_temp ".pt"
      "path(X, Z) <- path(X, Y), edge(Y, Z). path(X, Y) <- edge(X, Y).\n\
       edge(1, 2). edge(2, 3)."
  in
  let code, out = run [ "eval"; f; "--engine"; "tabled"; "path(1, X)" ] in
  Sys.remove f;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "left recursion complete" true
    (contains ~sub:"{X = 2}" out && contains ~sub:"{X = 3}" out)

let test_cli_forward () =
  let f = write_temp ".pt" "q(X) <- p(X). p(1)." in
  let code, out = run [ "forward"; f ] in
  Sys.remove f;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "derived fact" true (contains ~sub:"q(1)" out)

let test_cli_negotiate_grant_and_deny () =
  let owner = write_temp ".pt" owner_program in
  let client = write_temp ".pt" client_program in
  let code, out =
    run
      [ "negotiate"; "-p"; "owner=" ^ owner; "-p"; "client=" ^ client;
        "--requester"; "client"; "--target"; "owner"; "--narrative";
        {|resource("r")|} ]
  in
  Alcotest.(check int) "granted exits 0" 0 code;
  Alcotest.(check bool) "narrative printed" true
    (contains ~sub:"client asks owner" out);
  (* Without the credential the same request is denied, exit 2. *)
  let empty = write_temp ".pt" "" in
  let code2, _ =
    run
      [ "negotiate"; "-p"; "owner=" ^ owner; "-p"; "client=" ^ empty;
        "--requester"; "client"; "--target"; "owner"; {|resource("r")|} ]
  in
  Sys.remove owner;
  Sys.remove client;
  Sys.remove empty;
  Alcotest.(check int) "denied exits 2" 2 code2

let test_cli_analyze () =
  let owner =
    write_temp ".pt"
      {|a("o") $ b(Requester) @ "CA" <-{true} a("o").
        a("o") @ "CA" signedBy ["CA"].
        b(X) @ "CA" <- b(X) @ "CA" @ X.|}
  in
  let req =
    write_temp ".pt"
      {|b("r") $ a(Requester) @ "CA" <-{true} b("r").
        b("r") @ "CA" signedBy ["CA"].
        a(X) @ "CA" <- a(X) @ "CA" @ X.|}
  in
  let code, out =
    run
      [ "analyze"; "-p"; "owner=" ^ owner; "-p"; "req=" ^ req; "--goal";
        {|owner:a("o")|} ]
  in
  Sys.remove owner;
  Sys.remove req;
  Alcotest.(check int) "unreachable goal exits 2" 2 code;
  Alcotest.(check bool) "deadlock reported" true
    (contains ~sub:"deadlock cycle" out)

let test_cli_scenario () =
  let code, out = run [ "scenario"; "elearn" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "granted" true (contains ~sub:"granted" out)

(* The report's ticks end where the outcome settled: a crash scheduled
   long after the last message (tick 6) does not stretch them. *)
let test_cli_scenario_ticks () =
  List.iter
    (fun args ->
      let code, out = run ([ "scenario"; "elearn" ] @ args) in
      Alcotest.(check int) "exit 0" 0 code;
      Alcotest.(check bool)
        (String.concat " " args ^ ": 6 ticks")
        true
        (contains ~sub:"disclosure(s), 6 tick(s)" out))
    [ []; [ "--crash"; "UIUC:1000:1001" ] ]

let test_cli_wallet_roundtrip () =
  let owner = write_temp ".pt" owner_program in
  let client = write_temp ".pt" client_program in
  let wallet = Filename.temp_file "ptcli" ".wallet" in
  let code, _ =
    run
      [ "negotiate"; "-p"; "owner=" ^ owner; "-p"; "client=" ^ client;
        "--requester"; "client"; "--target"; "owner"; "--save-wallet"; wallet;
        {|resource("r")|} ]
  in
  Alcotest.(check int) "first run ok" 0 code;
  (* A fresh client without its program but with the wallet still wins:
     the credential comes from the imported wallet. *)
  let empty = write_temp ".pt" "" in
  let code2, _ =
    run
      [ "negotiate"; "-p"; "owner=" ^ owner; "-p"; "client=" ^ empty;
        "--requester"; "client"; "--target"; "owner"; "--wallet"; wallet;
        {|resource("r")|} ]
  in
  Sys.remove owner;
  Sys.remove client;
  Sys.remove empty;
  Sys.remove wallet;
  Alcotest.(check int) "wallet restores the credential" 0 code2

let test_cli_world_roundtrip () =
  let owner = write_temp ".pt" owner_program in
  let client = write_temp ".pt" client_program in
  let dir = Filename.temp_file "ptcli" ".world" in
  Sys.remove dir;
  let code, _ =
    run
      [ "negotiate"; "-p"; "owner=" ^ owner; "-p"; "client=" ^ client;
        "--requester"; "client"; "--target"; "owner"; "--save-world"; dir;
        {|resource("r")|} ]
  in
  Sys.remove owner;
  Sys.remove client;
  Alcotest.(check int) "first run ok" 0 code;
  let code, out = run [ "world"; "--dir"; dir ] in
  Alcotest.(check int) "describe ok" 0 code;
  Alcotest.(check string) "both peers with their counts"
    "client: 2 rule(s), 1 certificate(s)\nowner: 5 rule(s), 1 certificate(s)\n"
    out;
  let code, _ =
    run [ "world"; "--dir"; dir; "--requester"; "client"; "--target"; "owner";
          {|resource("r")|} ]
  in
  Alcotest.(check int) "negotiates inside the world" 0 code;
  let files = Array.to_list (Sys.readdir dir) in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir;
  Alcotest.(check (list string)) "only programs and journals" []
    (List.filter
       (fun f ->
         not (Filename.check_suffix f ".pt" || Filename.check_suffix f ".journal"))
       files)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cli"
    [
      ( "cli",
        [
          tc "parse" test_cli_parse;
          tc "parse error" test_cli_parse_error;
          tc "eval" test_cli_eval;
          tc "eval tabled" test_cli_eval_tabled;
          tc "forward" test_cli_forward;
          tc "negotiate grant/deny" test_cli_negotiate_grant_and_deny;
          tc "analyze deadlock" test_cli_analyze;
          tc "scenario" test_cli_scenario;
          tc "scenario ticks end at the outcome" test_cli_scenario_ticks;
          tc "wallet roundtrip" test_cli_wallet_roundtrip;
          tc "world roundtrip" test_cli_world_roundtrip;
        ] );
    ]
