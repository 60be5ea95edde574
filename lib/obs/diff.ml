(* Bench-regression checking: compare a fresh metrics snapshot against a
   committed baseline with per-metric tolerances and produce a
   machine-readable verdict.

   Checks are two-sided: a metric regresses when it grows past
   [base * ratio + abs] and collapses when it falls below
   [base / ratio - abs] — a counter dropping to zero usually means lost
   coverage, which is as much a regression as a slowdown.  Wall-clock
   gauges (names ending in [.ms] / [.ns]) get a much wider default ratio
   plus absolute slack, since sub-millisecond measurements are noisy
   across machines.  Allocation gauges ([.kwords]) are exact for a given
   tree, so they keep the counter band. *)

type tolerance = { tol_ratio : float; tol_abs : float }

type spec = {
  sp_default : tolerance;
  sp_timing : tolerance;
  sp_overrides : (string * tolerance) list;  (* exact metric name *)
}

let default_tolerance = { tol_ratio = 1.5; tol_abs = 16. }
let timing_tolerance = { tol_ratio = 8.; tol_abs = 50. }

let default_spec =
  {
    sp_default = default_tolerance;
    sp_timing = timing_tolerance;
    sp_overrides = [];
  }

let has_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suffix

let is_timing name =
  has_suffix ~suffix:".ms" name || has_suffix ~suffix:".ns" name

let tolerance_for spec name =
  match List.assoc_opt name spec.sp_overrides with
  | Some tol -> tol
  | None -> if is_timing name then spec.sp_timing else spec.sp_default

type violation = {
  v_metric : string;  (* e.g. "net.messages" or "reactor.steps_per_run.p99" *)
  v_baseline : float;
  v_fresh : float;
  v_allowed : float * float;  (* the [lo, hi] band the fresh value left *)
}

type report = {
  r_ok : bool;
  r_checked : int;  (* comparisons performed *)
  r_violations : violation list;
  r_missing : string list;  (* in baseline, absent from fresh *)
  r_extra : string list;  (* in fresh, absent from baseline (informational) *)
}

let band tol base =
  let lo = (base /. tol.tol_ratio) -. tol.tol_abs in
  let hi = (base *. tol.tol_ratio) +. tol.tol_abs in
  (* Negative bases flip the ratio bounds. *)
  (Float.min lo hi, Float.max lo hi)

let check_value spec ~metric ~base ~fresh acc =
  let tol = tolerance_for spec metric in
  let lo, hi = band tol base in
  let checked, violations = acc in
  if fresh < lo || fresh > hi then
    ( checked + 1,
      {
        v_metric = metric;
        v_baseline = base;
        v_fresh = fresh;
        v_allowed = (lo, hi);
      }
      :: violations )
  else (checked + 1, violations)

(* Join two sorted assoc lists into (name, base option, fresh option). *)
let rec join a b =
  match (a, b) with
  | [], rest -> List.map (fun (k, v) -> (k, None, Some v)) rest
  | rest, [] -> List.map (fun (k, v) -> (k, Some v, None)) rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c = 0 then (ka, Some va, Some vb) :: join ta tb
      else if c < 0 then (ka, Some va, None) :: join ta b
      else (kb, None, Some vb) :: join a tb

let compare_snapshots ?(spec = default_spec) ~baseline ~fresh () =
  let acc = ref (0, []) in
  let missing = ref [] and extra = ref [] in
  let walk pairs value =
    List.iter
      (fun (name, b, f) ->
        match (b, f) with
        | Some b, Some f ->
            acc := check_value spec ~metric:name ~base:(value b) ~fresh:(value f) !acc
        | Some _, None -> missing := name :: !missing
        | None, Some _ -> extra := name :: !extra
        | None, None -> ())
      pairs
  in
  walk
    (join baseline.Registry.sn_counters fresh.Registry.sn_counters)
    Float.of_int;
  walk (join baseline.Registry.sn_gauges fresh.Registry.sn_gauges) Fun.id;
  (* Histograms: compare the shape that matters for tails — count, mean
     and the observed max — each as its own named comparison. *)
  List.iter
    (fun (name, b, f) ->
      match (b, f) with
      | Some b, Some f ->
          List.iter
            (fun (facet, value) ->
              acc :=
                check_value spec
                  ~metric:(name ^ "." ^ facet)
                  ~base:(value b) ~fresh:(value f) !acc)
            [
              ("count", fun hs -> Float.of_int hs.Metric.hs_count);
              ("mean", Metric.mean);
              ("max", fun hs -> hs.Metric.hs_max);
            ]
      | Some _, None -> missing := name :: !missing
      | None, Some _ -> extra := name :: !extra
      | None, None -> ())
    (join baseline.Registry.sn_histograms fresh.Registry.sn_histograms);
  let checked, violations = !acc in
  {
    r_ok = violations = [] && !missing = [];
    r_checked = checked;
    r_violations = List.rev violations;
    r_missing = List.sort String.compare !missing;
    r_extra = List.sort String.compare !extra;
  }

(* ------------------------------------------------------------------ *)
(* Verdict *)

let violation_to_json v =
  let lo, hi = v.v_allowed in
  Json.Obj
    [
      ("metric", Json.Str v.v_metric);
      ("baseline", Json.Float v.v_baseline);
      ("fresh", Json.Float v.v_fresh);
      ("allowed_lo", Json.Float lo);
      ("allowed_hi", Json.Float hi);
    ]

let report_to_json r =
  Json.Obj
    [
      ("schema", Json.Str "peertrust.benchdiff/1");
      ("verdict", Json.Str (if r.r_ok then "pass" else "fail"));
      ("checked", Json.Int r.r_checked);
      ("violations", Json.List (List.map violation_to_json r.r_violations));
      ("missing", Json.List (List.map (fun m -> Json.Str m) r.r_missing));
      ("extra", Json.List (List.map (fun m -> Json.Str m) r.r_extra));
    ]

let pp_report fmt r =
  Format.fprintf fmt "bench diff: %s (%d comparison(s), %d violation(s))@\n"
    (if r.r_ok then "PASS" else "FAIL")
    r.r_checked
    (List.length r.r_violations);
  List.iter
    (fun v ->
      let lo, hi = v.v_allowed in
      Format.fprintf fmt "  %s: baseline %g, fresh %g, allowed [%g, %g]@\n"
        v.v_metric v.v_baseline v.v_fresh lo hi)
    r.r_violations;
  List.iter
    (fun m -> Format.fprintf fmt "  missing from fresh run: %s@\n" m)
    r.r_missing;
  List.iter
    (fun m -> Format.fprintf fmt "  new metric (not in baseline): %s@\n" m)
    r.r_extra
