(** Bench-regression checking: compare a fresh {!Registry.snapshot}
    against a committed baseline with per-metric tolerances, producing a
    machine-readable verdict (the [bench diff] subcommand and the
    [check.sh] gate are built on this).

    Every comparison is two-sided: with tolerance [{tol_ratio; tol_abs}]
    and baseline value [b], the fresh value must stay inside
    [[b / ratio - abs, b * ratio + abs]] — growth past the band is a
    regression, collapse below it is lost coverage.  Metrics whose names
    end in [.ms] or [.ns] are wall-clock measurements and get the (much
    wider) timing tolerance.  Allocation gauges ([.kwords]) are exact for
    a given tree and get the counter tolerance, so an allocation
    regression fails the gate like a counter's.  Histograms are compared on
    [count], [mean] and the observed [max] (which is why snapshots carry
    min/max). *)

type tolerance = { tol_ratio : float; tol_abs : float }

type spec = {
  sp_default : tolerance;
  sp_timing : tolerance;
  sp_overrides : (string * tolerance) list;
      (** exact metric name -> tolerance, wins over both defaults *)
}

val default_tolerance : tolerance
(** ratio 1.5, abs 16 — generous for deterministic counters. *)

val timing_tolerance : tolerance
(** ratio 8, abs 50 — sub-millisecond timings are noisy across machines. *)

val default_spec : spec
val is_timing : string -> bool
val tolerance_for : spec -> string -> tolerance

type violation = {
  v_metric : string;
      (** metric name; histogram facets as [name.count] / [name.mean] /
          [name.max] *)
  v_baseline : float;
  v_fresh : float;
  v_allowed : float * float;  (** the [(lo, hi)] band the value left *)
}

type report = {
  r_ok : bool;  (** no violations and nothing missing *)
  r_checked : int;
  r_violations : violation list;
  r_missing : string list;  (** in baseline, absent from the fresh run *)
  r_extra : string list;  (** new in the fresh run (informational) *)
}

val compare_snapshots :
  ?spec:spec ->
  baseline:Registry.snapshot ->
  fresh:Registry.snapshot ->
  unit ->
  report

val report_to_json : report -> Json.t
(** Schema [peertrust.benchdiff/1] with a ["verdict"] of
    ["pass"]/["fail"]. *)

val pp_report : Format.formatter -> report -> unit
