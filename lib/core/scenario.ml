open Peertrust_dlp

(* ------------------------------------------------------------------ *)
(* Scenario 1: Alice & E-Learn (§4.1) *)

type scenario1 = {
  s1_session : Session.t;
  s1_alice : string;
  s1_elearn : string;
  s1_uiuc : string;
}

let elearn_program_s1 =
  {|
    % Discounted enrolment: released to the party named in the request.
    discountEnroll(Course, Party) $ Requester = Party <-
      discountEnroll(Course, Party).
    discountEnroll(Course, Party) <- eligibleForDiscount(Party, Course).
    eligibleForDiscount(X, Course) <- course(Course), preferred(X) @ "ELENA".

    % ELENA's signed rule: UIUC students are preferred customers.
    preferred(X) @ "ELENA" <- signedBy ["ELENA"] student(X) @ "UIUC".

    % Ask students themselves for proof of their student status.
    student(X) @ University <- student(X) @ University @ X.

    % E-Learn's own BBB membership, publicly releasable.
    member("E-Learn") @ "BBB" $ true signedBy ["BBB"].

    course(spanish101).
    course(french201).
  |}

let alice_program_s1 =
  {|
    % Student ID issued by the registrar.
    student("Alice") @ "UIUC Registrar" signedBy ["UIUC Registrar"].

    % Cached copy of UIUC's delegation to its registrar (public rule).
    student(X) @ "UIUC" <-{true} signedBy ["UIUC"] student(X) @ "UIUC Registrar".

    % Release policy: student literals go only to BBB members that prove
    % their membership themselves.
    student(X) @ Y $ member(Requester) @ "BBB" @ Requester <-{true}
      student(X) @ Y.
  |}

let uiuc_program_s1 =
  {|
    % UIUC answers student-status queries only for its registrar.
    student(X) $ Requester = "UIUC Registrar" <- student(X) @ "UIUC Registrar".
  |}

let scenario1_goal () =
  Parser.parse_literal {|discountEnroll(spanish101, "Alice")|}

let scenario1 ?config ?key_bits () =
  let session = Session.create ?config ?key_bits () in
  ignore (Session.add_peer session ~program:elearn_program_s1 "E-Learn");
  ignore (Session.add_peer session ~program:alice_program_s1 "Alice");
  ignore (Session.add_peer session ~program:uiuc_program_s1 "UIUC");
  {
    s1_session = session;
    s1_alice = "Alice";
    s1_elearn = "E-Learn";
    s1_uiuc = "UIUC";
  }

(* ------------------------------------------------------------------ *)
(* Scenario 2: signing up for learning services (§4.2) *)

type scenario2 = {
  s2_session : Session.t;
  s2_bob : string;
  s2_elearn : string;
  s2_visa : string;
  s2_accounts : Externals.Accounts.t;
}

let elearn_program_s2 =
  {|
    % Free courses for employees of ELENA member companies; enrolment
    % results are releasable to anyone who qualifies ($ true).
    enroll(Course, Requester, Company, Email, 0) $ true <-
      freeCourse(Course),
      freebieEligible(Course, Requester, Company, Email).

    % Pay-per-use courses; policy49 protects the billing requirements.
    enroll(Course, Requester, Company, Email, Price) $ true <-
      policy49(Course, Requester, Company, Price).

    % Private: reveals that the only free-course agreement is with ELENA.
    freebieEligible(Course, Requester, Company, Email) <-
      email(Requester, Email) @ Requester,
      employee(Requester) @ Company @ Requester,
      member(Company) @ "ELENA" @ Requester.

    policy49(Course, Requester, Company, Price) <-
      price(Course, Price),
      authorized(Requester, Price) @ Company @ Requester,
      visaCard(Company) @ "VISA" @ Requester,
      purchaseApproved(Company, Price) @ "VISA".

    freeCourse(cs101).
    freeCourse(cs102).
    price(cs411, 1000).
    price(cs500, 3000).

    % Cached public credentials.
    member("IBM") @ "ELENA" $ true signedBy ["ELENA"].
    member("E-Learn") @ "ELENA" $ true signedBy ["ELENA"].
    authorizedMerchant("E-Learn") $ true signedBy ["VISA"].
  |}

let bob_program_s2 =
  {|
    % Bob's email, released to ELENA members (adjusted from the paper's
    % implicit default; see DESIGN.md).
    email("Bob", "bob@ibm.com") $ member(Requester) @ "ELENA".

    % Employment and purchase authorization, released to ELENA members.
    employee("Bob") @ X $ member(Requester) @ "ELENA" <-{true}
      employee("Bob") @ X.
    employee("Bob") @ "IBM" signedBy ["IBM"].

    authorized("Bob", Price) @ X $ member(Requester) @ "ELENA" <-{true}
      authorized("Bob", Price) @ X.
    authorized("Bob", Price) @ "IBM" <- signedBy ["IBM"] Price < 2000.

    % ELENA membership checks are forwarded to the requester.
    member(Requester) @ "ELENA" <-{true} member(Requester) @ "ELENA" @ Requester.

    % The company VISA card, protected by policy27.
    visaCard("IBM") @ "VISA" $ policy27(Requester) <-{true} visaCard("IBM") @ "VISA".
    visaCard("IBM") signedBy ["VISA"].
    policy27(Requester) <-
      authorizedMerchant(Requester) @ "VISA" @ Requester,
      member(Requester) @ "ELENA".

    % Cached memberships from previous interactions (public certificates).
    member("IBM") @ "ELENA" $ true signedBy ["ELENA"].
    member("E-Learn") @ "ELENA" $ true signedBy ["ELENA"].
  |}

let visa_program = {|
    purchaseApproved(Company, Price) $ true <- approve(Company, Price).
  |}

(* The paper's credit-limit check backed by the revocable account table,
   so revocation speech acts (and cache invalidation) reach the
   scenario. *)
let visa_accounts limit =
  let accounts = Externals.Accounts.create () in
  Externals.Accounts.set_limit accounts ~account:"IBM" limit;
  accounts

let scenario2_goal_free () =
  Parser.parse_literal {|enroll(cs101, "Bob", "IBM", Email, 0)|}

let scenario2_goal_paid () =
  Parser.parse_literal {|enroll(cs411, "Bob", "IBM", Email, Price)|}

let scenario2 ?config ?key_bits ?(visa_limit = 5000) () =
  let session = Session.create ?config ?key_bits () in
  let accounts = visa_accounts visa_limit in
  ignore (Session.add_peer session ~program:elearn_program_s2 "E-Learn");
  ignore (Session.add_peer session ~program:bob_program_s2 "Bob");
  ignore
    (Session.add_peer session ~program:visa_program
       ~externals:(Externals.Accounts.externals ~pred:"approve" accounts)
       "VISA");
  {
    s2_session = session;
    s2_bob = "Bob";
    s2_elearn = "E-Learn";
    s2_visa = "VISA";
    s2_accounts = accounts;
  }

(* ------------------------------------------------------------------ *)
(* Parametric workloads *)

type chain_world = {
  cw_session : Session.t;
  cw_requester : string;
  cw_owner : string;
  cw_goal : Literal.t;
}

let redirect_rule j =
  Printf.sprintf {|cred%d(X) @ "CA" <- cred%d(X) @ "CA" @ X.|} j j

let cred_fact ~holder i =
  Printf.sprintf {|cred%d("%s") @ "CA" signedBy ["CA"].|} i holder

let cred_release ~depth i =
  if i = depth then
    Printf.sprintf {|cred%d(X) @ "CA" $ true <-{true} cred%d(X) @ "CA".|} i i
  else
    Printf.sprintf
      {|cred%d(X) @ "CA" $ cred%d(Requester) @ "CA" <-{true} cred%d(X) @ "CA".|}
      i (i + 1) i

let extra_cred_fact ~holder i =
  Printf.sprintf
    {|extra%d("%s") @ "CA" $ true signedBy ["CA"].|} i holder

let policy_chain ?config ?(extra_creds = 0) ?missing ~depth () =
  if depth < 1 then invalid_arg "Scenario.policy_chain: depth must be >= 1";
  (match missing with
  | Some k when k < 1 || k > depth ->
      invalid_arg "Scenario.policy_chain: missing credential out of range"
  | Some _ | None -> ());
  let session = Session.create ?config () in
  let requester = "alice" and owner = "bob" in
  let holder i = if i mod 2 = 1 then requester else owner in
  let buf_r = Buffer.create 256 and buf_o = Buffer.create 256 in
  Buffer.add_string buf_o
    {|resource(X) $ cred1(Requester) @ "CA" <-{true} haveResource(X).
      haveResource("r1").
    |};
  for i = 1 to depth do
    let buf = if String.equal (holder i) requester then buf_r else buf_o in
    if missing <> Some i then begin
      Buffer.add_string buf (cred_fact ~holder:(holder i) i);
      Buffer.add_char buf '\n'
    end;
    Buffer.add_string buf (cred_release ~depth i);
    Buffer.add_char buf '\n'
  done;
  for j = 1 to depth do
    Buffer.add_string buf_r (redirect_rule j);
    Buffer.add_char buf_r '\n';
    Buffer.add_string buf_o (redirect_rule j);
    Buffer.add_char buf_o '\n'
  done;
  for e = 1 to extra_creds do
    Buffer.add_string buf_r (extra_cred_fact ~holder:requester e);
    Buffer.add_char buf_r '\n';
    Buffer.add_string buf_o (extra_cred_fact ~holder:owner (e + extra_creds));
    Buffer.add_char buf_o '\n'
  done;
  ignore (Session.add_peer session ~program:(Buffer.contents buf_r) requester);
  ignore (Session.add_peer session ~program:(Buffer.contents buf_o) owner);
  {
    cw_session = session;
    cw_requester = requester;
    cw_owner = owner;
    cw_goal = Parser.parse_literal {|resource("r1")|};
  }

type grid = {
  g_session : Session.t;
  g_user : string;
  g_cluster : string;
}

let grid_cluster_metadata =
  {|
    @prefix grid: <http://grid.example.org/meta#> .
    grid:batch a grid:Queue ; grid:cores 512 ; grid:walltime 86400 .
    grid:debug a grid:Queue ; grid:cores 16 ; grid:walltime 3600 .
  |}

let grid_cluster_program =
  {|
    % Job submission: VO members may submit to any queue with enough cores.
    submit(Queue, Requester, Cores) $ true <-
      cores(Queue, Max), Cores <= Max,
      voMember(Requester) @ "PhysicsVO" @ Requester.

    % The cluster's grid credential, releasable to anyone.
    gridResource("cluster") @ "GridCA" $ true signedBy ["GridCA"].
  |}

let grid_user_program =
  {|
    % VO membership certified by the registration service, plus the VO's
    % delegation rule; released only to proven grid resources.
    voMember("ada") @ "VORegistration" signedBy ["VORegistration"].
    voMember(X) @ "PhysicsVO" <-{true} signedBy ["PhysicsVO"]
      voMember(X) @ "VORegistration".
    voMember(X) @ Y $ gridResource(Requester) @ "GridCA" @ Requester <-{true}
      voMember(X) @ Y.
  |}

let grid ?config () =
  let session = Session.create ?config () in
  let cluster = Session.add_peer session ~program:grid_cluster_program "cluster" in
  cluster.Peer.kb <-
    Kb.union cluster.Peer.kb
      (Peertrust_rdf.Mapping.kb_of_store
         (Peertrust_rdf.Turtle.load grid_cluster_metadata));
  ignore (Session.add_peer session ~program:grid_user_program "ada");
  { g_session = session; g_user = "ada"; g_cluster = "cluster" }

type marketplace = {
  mp_session : Session.t;
  mp_learners : string list;
  mp_providers : string list;
  mp_goals : (string * string * Literal.t) list;
}

let marketplace ?config ?(seed = 7L) ~providers ~learners
    ~courses_per_provider () =
  if providers < 1 || learners < 1 || courses_per_provider < 1 then
    invalid_arg "Scenario.marketplace: all sizes must be >= 1";
  let session = Session.create ?config () in
  let prng = Peertrust_crypto.Prng.create seed in
  let provider_names =
    List.init providers (fun i -> Printf.sprintf "provider%d" i)
  in
  let learner_names = List.init learners (fun i -> Printf.sprintf "learner%d" i) in
  let courses_of = Hashtbl.create 8 in
  List.iteri
    (fun pi name ->
      let course_ids =
        List.init courses_per_provider (fun ci ->
            Printf.sprintf "course%d_%d" pi ci)
      in
      Hashtbl.add courses_of name course_ids;
      let buf = Buffer.create 512 in
      List.iter
        (fun id ->
          Buffer.add_string buf
            (Printf.sprintf "price(%s, %d).\n" id
               (100 + Peertrust_crypto.Prng.next_int prng 1900)))
        course_ids;
      Buffer.add_string buf
        {|price(C, P) $ true <-{true} price(C, P).
          enroll(Course, Party) $ Requester = Party <-{true}
            price(Course, P), student(Party) @ "University" @ Party.
        |};
      Buffer.add_string buf
        (Printf.sprintf
           {|accredited("%s") @ "Agency" $ true signedBy ["Agency"].|} name);
      ignore (Session.add_peer session ~program:(Buffer.contents buf) name))
    provider_names;
  List.iter
    (fun name ->
      let program =
        Printf.sprintf
          {|student("%s") @ "University" signedBy ["University"].
            student(X) @ Y $ accredited(Requester) @ "Agency" @ Requester <-{true}
              student(X) @ Y.|}
          name
      in
      ignore (Session.add_peer session ~program name))
    learner_names;
  let goals =
    List.concat_map
      (fun learner ->
        List.map
          (fun provider ->
            let courses = Hashtbl.find courses_of provider in
            let course =
              List.nth courses
                (Peertrust_crypto.Prng.next_int prng (List.length courses))
            in
            ( learner,
              provider,
              Parser.parse_literal
                (Printf.sprintf {|enroll(%s, "%s")|} course learner) ))
          provider_names)
      learner_names
  in
  {
    mp_session = session;
    mp_learners = learner_names;
    mp_providers = provider_names;
    mp_goals = goals;
  }

(* ------------------------------------------------------------------ *)
(* Recursive (cyclic) workloads for the distributed tabling engine *)

type recursion_world = {
  rw_session : Session.t;
  rw_requester : string;
  rw_target : string;
  rw_goal : Literal.t;
  rw_expected : Literal.t list;
  rw_peers : string list;
}

let ring_rule ~next = Printf.sprintf {|accredited(X) <- accredited(X) @ "%s".|} next

let mutual_accreditation ?config ?(n = 2) () =
  if n < 2 then
    invalid_arg "Scenario.mutual_accreditation: ring needs >= 2 peers";
  let session = Session.create ?config () in
  let peer i = Printf.sprintf "peer%d" i in
  let peers = List.init n peer in
  List.iteri
    (fun i name ->
      let program =
        ring_rule ~next:(peer ((i + 1) mod n))
        ^ if i = 0 then {|
accredited("seed").|} else ""
      in
      ignore (Session.add_peer session ~program name))
    peers;
  ignore (Session.add_peer session "client");
  {
    rw_session = session;
    rw_requester = "client";
    rw_target = peer 0;
    rw_goal = Parser.parse_literal {|accredited(X)|};
    rw_expected = [ Parser.parse_literal {|accredited("seed")|} ];
    rw_peers = peers;
  }

let federation ?config ?(clusters = 2) ?(size = 2) () =
  if clusters < 1 then
    invalid_arg "Scenario.federation: clusters must be >= 1";
  if size < 2 then invalid_arg "Scenario.federation: ring size must be >= 2";
  let session = Session.create ?config () in
  let peer c i = Printf.sprintf "c%dp%d" c i in
  let peers =
    List.concat (List.init clusters (fun c -> List.init size (peer c)))
  in
  List.iter
    (fun name ->
      (* name is "c<c>p<i>" *)
      Scanf.sscanf name "c%dp%d" (fun c i ->
          let buf = Buffer.create 128 in
          Buffer.add_string buf (ring_rule ~next:(peer c ((i + 1) mod size)));
          Buffer.add_char buf '\n';
          if i = 0 then begin
            (* The cluster entry holds that federation's own member fact
               and, except for the last cluster, accepts accreditations
               from the next federation downstream. *)
            Buffer.add_string buf
              (Printf.sprintf {|accredited("member%d").|} c);
            Buffer.add_char buf '\n';
            if c < clusters - 1 then begin
              Buffer.add_string buf
                (Printf.sprintf {|accredited(X) <- accredited(X) @ "%s".|}
                   (peer (c + 1) 0));
              Buffer.add_char buf '\n'
            end
          end;
          ignore (Session.add_peer session ~program:(Buffer.contents buf) name)))
    peers;
  ignore (Session.add_peer session "client");
  {
    rw_session = session;
    rw_requester = "client";
    rw_target = peer 0 0;
    rw_goal = Parser.parse_literal {|accredited(X)|};
    rw_expected =
      List.init clusters (fun c ->
          Parser.parse_literal (Printf.sprintf {|accredited("member%d")|} c));
    rw_peers = peers;
  }

let fanout ?config ~width () =
  if width < 1 then invalid_arg "Scenario.fanout: width must be >= 1";
  let session = Session.create ?config () in
  let requester = "alice" and owner = "bob" in
  let ctx =
    String.concat ", "
      (List.init width (fun i ->
           Printf.sprintf {|need%d(Requester) @ "CA"|} (i + 1)))
  in
  let buf_o = Buffer.create 256 in
  Buffer.add_string buf_o
    (Printf.sprintf
       {|resource(X) $ %s <-{true} haveResource(X).
         haveResource("r1").
       |}
       ctx);
  let buf_r = Buffer.create 256 in
  for i = 1 to width do
    Buffer.add_string buf_o
      (Printf.sprintf {|need%d(X) @ "CA" <- need%d(X) @ "CA" @ X.|} i i);
    Buffer.add_char buf_o '\n';
    Buffer.add_string buf_r
      (Printf.sprintf {|need%d("%s") @ "CA" $ true signedBy ["CA"].|} i
         requester);
    Buffer.add_char buf_r '\n'
  done;
  ignore (Session.add_peer session ~program:(Buffer.contents buf_r) requester);
  ignore (Session.add_peer session ~program:(Buffer.contents buf_o) owner);
  {
    cw_session = session;
    cw_requester = requester;
    cw_owner = owner;
    cw_goal = Parser.parse_literal {|resource("r1")|};
  }
