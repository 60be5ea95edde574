(* Tests for the observability layer: spans, metrics, exporters, and the
   engine instrumentation feeding them during a real scenario run. *)

open Peertrust_obs
module Core = Peertrust
module Net = Peertrust_net

(* ------------------------------------------------------------------ *)
(* Spans and tracer *)

let span_names spans = List.map (fun (s : Span.t) -> s.Span.name) spans

let test_span_nesting () =
  let t = Tracer.create () in
  let result =
    Tracer.with_span t "outer" (fun () ->
        Tracer.with_span t "inner1" (fun () -> ());
        Tracer.with_span t "inner2" (fun () -> 42))
  in
  Alcotest.(check int) "result passes through" 42 result;
  let spans = Tracer.spans t in
  Alcotest.(check (list string))
    "start order" [ "outer"; "inner1"; "inner2" ] (span_names spans);
  let find name = List.find (fun (s : Span.t) -> s.Span.name = name) spans in
  let outer = find "outer" in
  Alcotest.(check (option int)) "outer is a root" None outer.Span.parent;
  Alcotest.(check (option int))
    "inner1 child of outer" (Some outer.Span.id) (find "inner1").Span.parent;
  Alcotest.(check (option int))
    "inner2 child of outer (sibling of inner1)" (Some outer.Span.id)
    (find "inner2").Span.parent;
  List.iter
    (fun (s : Span.t) ->
      Alcotest.(check bool)
        (s.Span.name ^ " finished") true
        (s.Span.end_ticks <> None))
    spans

let test_span_clock_and_events () =
  let ticks = ref 0 in
  let t = Tracer.create ~now:(fun () -> !ticks) () in
  Tracer.with_span t "work" (fun () ->
      ticks := 3;
      Tracer.event t "milestone";
      Tracer.set_attr t "k" (Json.Str "v");
      ticks := 7);
  match Tracer.spans t with
  | [ s ] ->
      Alcotest.(check int) "start ticks" 0 s.Span.start_ticks;
      Alcotest.(check (option int)) "end ticks" (Some 7) s.Span.end_ticks;
      Alcotest.(check int) "duration" 7 (Span.duration s);
      (match Span.events s with
      | [ e ] ->
          Alcotest.(check int) "event tick" 3 e.Span.at;
          Alcotest.(check string) "event message" "milestone" e.Span.message
      | es -> Alcotest.failf "expected 1 event, got %d" (List.length es));
      Alcotest.(check bool)
        "attr recorded" true
        (List.mem_assoc "k" (Span.attrs s))
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_span_exception_safety () =
  let t = Tracer.create () in
  (try Tracer.with_span t "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  match Tracer.finished t with
  | [ s ] -> Alcotest.(check string) "span closed" "boom" s.Span.name
  | _ -> Alcotest.fail "span not finished on exceptional exit"

let test_noop_tracer () =
  Alcotest.(check bool) "noop disabled" false (Tracer.enabled Tracer.noop);
  let r = Tracer.with_span Tracer.noop "ignored" (fun () -> 7) in
  Alcotest.(check int) "thunk still runs" 7 r;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Tracer.spans Tracer.noop))

(* ------------------------------------------------------------------ *)
(* Trace context: the propagated identity *)

let ctx_testable =
  Alcotest.testable Trace_context.pp Trace_context.equal

let test_trace_context_child () =
  let root = Trace_context.make ~trace_id:9 ~parent_span:0 () in
  let c = Trace_context.child root ~parent_span:42 in
  Alcotest.(check int) "same trace" 9 c.Trace_context.trace_id;
  Alcotest.(check int) "re-parented" 42 c.Trace_context.parent_span;
  Alcotest.(check bool) "sampling preserved" true c.Trace_context.sampled

let test_tracer_mint_and_join () =
  let t = Tracer.create () in
  Alcotest.(check (option ctx_testable))
    "noop mints nothing" None (Tracer.mint Tracer.noop);
  let a = Option.get (Tracer.mint t) in
  let b = Option.get (Tracer.mint t) in
  Alcotest.(check bool) "fresh trace ids" true
    (a.Trace_context.trace_id <> b.Trace_context.trace_id);
  Alcotest.(check int) "root has no parent span" 0 a.Trace_context.parent_span;
  (* An explicit context wins over the local stack: the span joins the
     context's trace with the context's parent, as after a wire hop. *)
  let remote = Trace_context.make ~trace_id:77 ~parent_span:5 () in
  Tracer.with_span t "local-root" (fun () ->
      Tracer.with_span t ~ctx:remote "joined" (fun () -> ()));
  let find name =
    List.find (fun (s : Span.t) -> s.Span.name = name) (Tracer.spans t)
  in
  let joined = find "joined" in
  Alcotest.(check int) "joins the remote trace" 77 joined.Span.trace;
  Alcotest.(check (option int))
    "parented under the remote span" (Some 5) joined.Span.parent;
  Alcotest.(check int) "local root stays untraced" 0
    (find "local-root").Span.trace

let test_tracer_current_context () =
  let t = Tracer.create () in
  Alcotest.(check (option ctx_testable))
    "no open span, no context" None (Tracer.current_context t);
  let ctx = Tracer.mint t in
  Tracer.with_span t ?ctx "root" (fun () ->
      match Tracer.current_context t with
      | None -> Alcotest.fail "traced span must yield a context"
      | Some c ->
          let root = Option.get (Tracer.current t) in
          Alcotest.(check int)
            "carries the minted trace"
            (Option.get ctx).Trace_context.trace_id c.Trace_context.trace_id;
          Alcotest.(check int)
            "parent is the open span" root.Span.id c.Trace_context.parent_span);
  (* An untraced span offers no context to propagate. *)
  Tracer.with_span t "untraced" (fun () ->
      Alcotest.(check (option ctx_testable))
        "untraced span yields none" None (Tracer.current_context t))

let test_tracer_unsampled_suppressed () =
  let t = Tracer.create () in
  let unsampled = Trace_context.make ~sampled:false ~trace_id:3 ~parent_span:0 () in
  Alcotest.(check bool)
    "start suppressed" true
    (Tracer.start t ~ctx:unsampled "quiet" = None);
  Tracer.with_span t ~ctx:unsampled "quiet2" (fun () -> ());
  Alcotest.(check int)
    "record suppressed" 0
    (List.length (Tracer.spans t)
    + Option.fold ~none:0 ~some:(fun _ -> 1)
        (Tracer.record t ~ctx:unsampled ~name:"quiet3" ~start_ticks:0
           ~end_ticks:1 ()))

let test_tracer_record_retrospective () =
  let ticks = ref 50 in
  let t = Tracer.create ~now:(fun () -> !ticks) () in
  let ctx = Trace_context.make ~trace_id:4 ~parent_span:1 () in
  Tracer.with_span t "live" (fun () ->
      (* Recording never touches the open-span stack. *)
      let wire =
        Option.get
          (Tracer.record t ~ctx ~name:"net.wire" ~start_ticks:10 ~end_ticks:20
             ())
      in
      Alcotest.(check int) "given extent kept" 10 wire.Span.start_ticks;
      Alcotest.(check (option int)) "closed at end tick" (Some 20)
        wire.Span.end_ticks;
      Alcotest.(check int) "joins the context trace" 4 wire.Span.trace;
      Alcotest.(check string)
        "stack undisturbed" "live"
        (Option.get (Tracer.current t)).Span.name);
  (* The sort contract: retrospective spans surface in start order even
     though they were recorded later. *)
  match span_names (Tracer.spans t) with
  | [ "net.wire"; "live" ] -> ()
  | names -> Alcotest.failf "unexpected order: %s" (String.concat "," names)

(* ------------------------------------------------------------------ *)
(* Histograms *)

let test_histogram_buckets () =
  let h = Metric.histogram ~buckets:[| 1.; 10.; 100. |] "h" in
  List.iter (Metric.observe_int h) [ 0; 1; 2; 10; 50; 1000 ];
  Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 1 |] h.Metric.counts;
  Alcotest.(check int) "count" 6 h.Metric.count;
  let hs = Metric.snapshot_histogram h in
  Alcotest.(check (float 1e-9)) "sum" 1063. hs.Metric.hs_sum;
  Alcotest.(check (float 1e-9))
    "mean" (1063. /. 6.) (Metric.mean hs)

let test_histogram_percentiles () =
  let h = Metric.histogram ~buckets:[| 1.; 2.; 4.; 8. |] "p" in
  (* 10 samples: four 1s, three 2s, two 4s, one 8. *)
  List.iter (Metric.observe_int h) [ 1; 1; 1; 1; 2; 2; 2; 4; 4; 8 ];
  let hs = Metric.snapshot_histogram h in
  Alcotest.(check (float 1e-9)) "p25 in first bucket" 1. (Metric.percentile hs 0.25);
  Alcotest.(check (float 1e-9)) "p50 in second bucket" 2. (Metric.percentile hs 0.5);
  Alcotest.(check (float 1e-9)) "p90 in third bucket" 4. (Metric.percentile hs 0.9);
  Alcotest.(check (float 1e-9)) "p100" 8. (Metric.percentile hs 1.);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metric.percentile: q outside [0,1]") (fun () ->
      ignore (Metric.percentile hs 1.5))

let test_histogram_min_max () =
  let h = Metric.histogram ~buckets:[| 10.; 100. |] "mm" in
  let hs0 = Metric.snapshot_histogram h in
  Alcotest.(check (float 1e-9)) "empty min is 0" 0. hs0.Metric.hs_min;
  Alcotest.(check (float 1e-9)) "empty max is 0" 0. hs0.Metric.hs_max;
  List.iter (Metric.observe_int h) [ 7; 3; 250 ];
  let hs = Metric.snapshot_histogram h in
  Alcotest.(check (float 1e-9)) "min tracked" 3. hs.Metric.hs_min;
  Alcotest.(check (float 1e-9)) "max tracked" 250. hs.Metric.hs_max;
  Metric.reset_histogram h;
  let hs' = Metric.snapshot_histogram h in
  Alcotest.(check (float 1e-9)) "reset clears min" 0. hs'.Metric.hs_min;
  Alcotest.(check (float 1e-9)) "reset clears max" 0. hs'.Metric.hs_max

let test_percentile_overflow_reports_max () =
  (* Samples past the last bound land in the unbounded overflow bucket;
     its percentile must report the observed maximum, not a mean. *)
  let h = Metric.histogram ~buckets:[| 1.; 2. |] "ov" in
  List.iter (Metric.observe_int h) [ 1; 100; 9000 ];
  let hs = Metric.snapshot_histogram h in
  Alcotest.(check (float 1e-9))
    "p100 is the observed max" 9000. (Metric.percentile hs 1.);
  Alcotest.(check (float 1e-9))
    "p90 also in the overflow bucket" 9000. (Metric.percentile hs 0.9);
  (* Monotone even when the only sample sits below the last bound. *)
  let g = Metric.histogram ~buckets:[| 1.; 1024. |] "cl" in
  Metric.observe_int g 2;
  let gs = Metric.snapshot_histogram g in
  Alcotest.(check bool) "clamped to the last bound" true
    (Metric.percentile gs 1. >= Metric.percentile gs 0.5)

let test_percentile_within_observed_range () =
  (* Proof depths of 3 and 5 fill the (2, 4] and (4, 8] buckets; no
     depth reached 8, so no percentile may report it. *)
  let h = Metric.histogram "depth" in
  List.iter (Metric.observe_int h) [ 3; 5; 5; 5 ];
  let hs = Metric.snapshot_histogram h in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g is at most the max" (q *. 100.))
        5. (Metric.percentile hs q))
    [ 0.5; 0.9; 0.99 ];
  (* ... nor below the smallest sample. *)
  let g = Metric.histogram "flat" in
  List.iter (Metric.observe_int g) [ 3; 3; 3 ];
  Alcotest.(check (float 1e-9))
    "p50 of equal samples" 3.
    (Metric.percentile (Metric.snapshot_histogram g) 0.5)

let test_min_max_survive_merge () =
  let mk samples =
    let h = Metric.histogram ~buckets:[| 8. |] "m" in
    List.iter (Metric.observe_int h) samples;
    Metric.snapshot_histogram h
  in
  let m = Metric.merge_histogram_snapshots (mk [ 4; 9 ]) (mk [ 2; 30 ]) in
  Alcotest.(check (float 1e-9)) "merged min" 2. m.Metric.hs_min;
  Alcotest.(check (float 1e-9)) "merged max" 30. m.Metric.hs_max

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_merge () =
  let make c1 hsamples gauge =
    let r = Registry.create () in
    Metric.add (Registry.counter r "c") c1;
    let h = Registry.histogram ~buckets:[| 1.; 2. |] r "h" in
    List.iter (Metric.observe_int h) hsamples;
    Metric.set (Registry.gauge r "g") gauge;
    Registry.snapshot r
  in
  let a = make 3 [ 1; 2 ] 1.0 in
  let b = make 4 [ 2; 5 ] 2.0 in
  let m = Registry.merge a b in
  Alcotest.(check int) "counters add" 7 (Registry.counter_value m "c");
  Alcotest.(check (list (pair string (float 1e-9))))
    "right gauge wins" [ ("g", 2.0) ] m.Registry.sn_gauges;
  (match Registry.histogram_snapshot m "h" with
  | Some hs ->
      Alcotest.(check (array int)) "histogram buckets add" [| 1; 2; 1 |]
        hs.Metric.hs_counts;
      Alcotest.(check int) "histogram count adds" 4 hs.Metric.hs_count
  | None -> Alcotest.fail "merged histogram missing");
  (* Merging with the empty snapshot is the identity. *)
  let id = Registry.merge a Registry.empty_snapshot in
  Alcotest.(check int) "identity merge" 3 (Registry.counter_value id "c")

let test_registry_reset_keeps_cells () =
  let r = Registry.create () in
  let c = Registry.counter r "c" in
  Metric.incr c;
  Registry.reset r;
  Alcotest.(check int) "zeroed" 0 (Metric.value c);
  Metric.incr c;
  Alcotest.(check int) "cell still registered" 1
    (Registry.counter_value (Registry.snapshot r) "c")

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_metrics_json_roundtrip () =
  let r = Registry.create () in
  Metric.add (Registry.counter r "queries") 12;
  Metric.set (Registry.gauge r "load") 0.5;
  let h = Registry.histogram r "steps" in
  List.iter (Metric.observe_int h) [ 1; 3; 70000 ];
  let snap = Registry.snapshot r in
  let text = Export.metrics_to_string ~label:"test" snap in
  (* The schema tag is embedded verbatim. *)
  (match Json.of_string text with
  | Ok json ->
      Alcotest.(check (option string))
        "schema tag" (Some Registry.schema_version)
        (Option.bind (Json.member "schema" json) Json.to_str)
  | Error e -> Alcotest.failf "export not valid JSON: %s" e);
  match Export.metrics_of_string text with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok snap' ->
      Alcotest.(check int) "counter survives" 12
        (Registry.counter_value snap' "queries");
      Alcotest.(check (list (pair string (float 1e-9))))
        "gauge survives" snap.Registry.sn_gauges snap'.Registry.sn_gauges;
      (match Registry.histogram_snapshot snap' "steps" with
      | Some hs ->
          let orig = Metric.snapshot_histogram h in
          Alcotest.(check (array int)) "buckets survive" orig.Metric.hs_counts
            hs.Metric.hs_counts;
          Alcotest.(check int) "count survives" 3 hs.Metric.hs_count
      | None -> Alcotest.fail "histogram lost in round-trip")

let test_metrics_json_minmax () =
  let r = Registry.create () in
  let h = Registry.histogram ~buckets:[| 4.; 16. |] r "lat" in
  List.iter (Metric.observe_int h) [ 2; 11; 90 ];
  let text = Export.metrics_to_string (Registry.snapshot r) in
  match Export.metrics_of_string text with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok snap -> (
      match Registry.histogram_snapshot snap "lat" with
      | Some hs ->
          Alcotest.(check (float 1e-9)) "min survives" 2. hs.Metric.hs_min;
          Alcotest.(check (float 1e-9)) "max survives" 90. hs.Metric.hs_max
      | None -> Alcotest.fail "histogram lost in round-trip")

let test_metrics_json_legacy_no_minmax () =
  (* BENCH_*.json files written before min/max tracking lack the fields;
     the loader must reconstruct stand-ins, not reject the file. *)
  let legacy =
    Printf.sprintf
      {|{"schema": %S, "counters": {}, "gauges": {},
         "histograms": {"lat": {"buckets": [{"le": 4, "count": 1},
                                            {"le": 16, "count": 1},
                                            {"le": "+inf", "count": 1}],
                                "sum": 103, "count": 3}}}|}
      Registry.schema_version
  in
  match Export.metrics_of_string legacy with
  | Error e -> Alcotest.failf "legacy snapshot rejected: %s" e
  | Ok snap -> (
      match Registry.histogram_snapshot snap "lat" with
      | Some hs ->
          Alcotest.(check int) "count parsed" 3 hs.Metric.hs_count;
          Alcotest.(check (float 1e-9))
            "max falls back to the last bound" 16. hs.Metric.hs_max;
          Alcotest.(check bool) "percentiles stay monotone" true
            (Metric.percentile hs 1. >= Metric.percentile hs 0.5)
      | None -> Alcotest.fail "legacy histogram missing")

let test_spans_jsonl_roundtrip () =
  let t = Tracer.create () in
  Tracer.with_span t "negotiation" (fun () ->
      Tracer.with_span t
        ~attrs:[ ("goal", Json.Str {|p("x")|}); ("depth", Json.Int 3) ]
        "query"
        (fun () -> Tracer.event t "hit"));
  let spans = Tracer.spans t in
  let text = Export.spans_to_jsonl spans in
  Alcotest.(check int) "one line per span" (List.length spans)
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' text)));
  match Export.spans_of_jsonl text with
  | Error e -> Alcotest.failf "JSONL parse failed: %s" e
  | Ok spans' ->
      Alcotest.(check (list string))
        "names survive" (span_names spans) (span_names spans');
      let q = List.nth spans' 1 in
      Alcotest.(check (option int))
        "parent link survives"
        (Some (List.nth spans 0).Span.id)
        q.Span.parent;
      Alcotest.(check bool) "attrs survive" true
        (List.mem_assoc "goal" (Span.attrs q));
      Alcotest.(check int) "events survive" 1 (List.length (Span.events q))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_span_tree_render () =
  let t = Tracer.create () in
  Tracer.with_span t "root" (fun () ->
      Tracer.with_span t "child" (fun () -> ()));
  let tree = Export.span_tree (Tracer.spans t) in
  Alcotest.(check bool) "root present" true (contains ~sub:"root" tree);
  Alcotest.(check bool) "child indented under root" true
    (contains ~sub:"  child" tree)

(* Spans for the exporter and timeline tests: one two-peer trace with a
   wire hop, plus an untraced stray. *)
let synthetic_spans () =
  let ticks = ref 0 in
  let t = Tracer.create ~now:(fun () -> !ticks) () in
  let ctx = Option.get (Tracer.mint t) in
  let nego =
    Option.get
      (Tracer.start t ~ctx ~attrs:[ ("peer", Json.Str "Alice") ] "negotiation")
  in
  ticks := 2;
  let send_ctx = Option.get (Tracer.current_context t) in
  let wire =
    Option.get
      (Tracer.record t ~ctx:send_ctx ~name:"net.wire" ~start_ticks:2
         ~end_ticks:7 ())
  in
  ticks := 7;
  let recv_ctx = Trace_context.child send_ctx ~parent_span:wire.Span.id in
  let recv =
    Option.get
      (Tracer.start t ~ctx:recv_ctx
         ~attrs:[ ("peer", Json.Str "E-Learn") ]
         "recv.query")
  in
  Tracer.event t "guard.quarantine Mallory";
  ticks := 10;
  Tracer.finish t (Some recv);
  Tracer.finish t (Some nego);
  Tracer.with_span t "stray" (fun () -> ());
  Tracer.spans t

let test_chrome_export () =
  let spans = synthetic_spans () in
  let doc = Export.spans_to_chrome spans in
  match Json.of_string doc with
  | Error e -> Alcotest.failf "chrome export not valid JSON: %s" e
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          Alcotest.(check bool) "events emitted" true (List.length events > 0);
          let phases =
            List.filter_map
              (fun e -> Option.bind (Json.member "ph" e) Json.to_str)
              events
          in
          Alcotest.(check bool) "complete events present" true
            (List.mem "X" phases);
          Alcotest.(check bool) "instant events present" true
            (List.mem "i" phases)
      | _ -> Alcotest.fail "traceEvents missing")

let test_causal_export () =
  let spans = synthetic_spans () in
  let doc = Export.spans_to_causal_jsonl spans in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' doc)
  in
  Alcotest.(check bool) "one record per start/event/end" true
    (List.length lines > List.length spans);
  let ticks =
    List.map
      (fun l ->
        match Json.of_string l with
        | Error e -> Alcotest.failf "causal line not JSON: %s (%s)" l e
        | Ok j -> (
            match Option.bind (Json.member "t" j) Json.to_int with
            | Some at -> at
            | None -> Alcotest.failf "causal line lacks a tick: %s" l))
      lines
  in
  Alcotest.(check bool) "tick-ordered" true
    (List.for_all2 ( <= ) ticks
       (match ticks with [] -> [] | _ :: tl -> tl @ [ max_int ]))

(* ------------------------------------------------------------------ *)
(* Timeline reconstruction *)

let test_timeline_build () =
  let spans = synthetic_spans () in
  match Timeline.build spans with
  | [ tl ] ->
      Alcotest.(check int) "one trace, untraced stray ignored" 1
        tl.Timeline.tl_trace;
      Alcotest.(check string)
        "root is the negotiation" "negotiation"
        (match tl.Timeline.tl_root with
        | Some s -> s.Span.name
        | None -> "(none)");
      let lanes = List.map fst tl.Timeline.tl_lanes in
      Alcotest.(check bool) "a lane per peer" true
        (List.mem "Alice" lanes && List.mem "E-Learn" lanes);
      (* The critical path runs root -> wire hop -> receiver. *)
      Alcotest.(check (list string))
        "critical path" [ "negotiation"; "net.wire"; "recv.query" ]
        (span_names tl.Timeline.tl_critical);
      Alcotest.(check int) "trace extent" 10
        (tl.Timeline.tl_end - tl.Timeline.tl_start);
      (* Self time: the wire hop owns [2,6) minus the receiver's overlap. *)
      let bd cat =
        Option.value ~default:0 (List.assoc_opt cat tl.Timeline.tl_breakdown)
      in
      Alcotest.(check bool) "wire time attributed" true (bd Timeline.Wire > 0);
      Alcotest.(check bool) "queue time attributed" true
        (bd Timeline.Queue > 0);
      let rendered = Timeline.to_string tl in
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (sub ^ " rendered") true (contains ~sub rendered))
        [ "Alice"; "E-Learn"; "critical path"; "net.wire" ]
  | tls -> Alcotest.failf "expected 1 timeline, got %d" (List.length tls)

let test_timeline_anomalies () =
  let spans = synthetic_spans () in
  let tl = List.hd (Timeline.build spans) in
  (* The synthetic trace carries one quarantine event. *)
  Alcotest.(check bool) "breaker trip flagged" true
    (List.exists
       (function Timeline.Breaker_trip _ -> true | _ -> false)
       tl.Timeline.tl_anomalies);
  Alcotest.(check bool) "no storm on a clean trace" true
    (not
       (List.exists
          (function Timeline.Retransmit_storm _ -> true | _ -> false)
          tl.Timeline.tl_anomalies));
  (* Storms and stampedes: build a trace with retransmit spans and a
     same-tick invalidation burst. *)
  let t = Tracer.create () in
  let ctx = Option.get (Tracer.mint t) in
  Tracer.with_span t ~ctx "negotiation" (fun () ->
      for i = 1 to Timeline.storm_threshold do
        Tracer.with_span t "reactor.retry" (fun () ->
            Tracer.event t (Printf.sprintf "reactor.retry #%d" i))
      done;
      Tracer.event t "cache.invalidate 3 entries";
      Tracer.event t "cache.invalidate 1 entry");
  let tl = List.hd (Timeline.build (Tracer.spans t)) in
  let retries =
    List.find_map
      (function
        | Timeline.Retransmit_storm { retries; _ } -> Some retries | _ -> None)
      tl.Timeline.tl_anomalies
  in
  (* Each retry is one occurrence: the span and any event inside it must
     not double-count. *)
  Alcotest.(check (option int))
    "storm flagged, retries counted once" (Some Timeline.storm_threshold)
    retries;
  Alcotest.(check bool) "stampede flagged" true
    (List.exists
       (function Timeline.Cache_stampede _ -> true | _ -> false)
       tl.Timeline.tl_anomalies)

let test_timeline_restart_storm () =
  (* Crash-stop restarts surface on the trace as reactor.restart events;
     enough of them in one trace is flagged as a restart storm. *)
  let storm n =
    let t = Tracer.create () in
    let ctx = Option.get (Tracer.mint t) in
    Tracer.with_span t ~ctx "negotiation" (fun () ->
        Tracer.event t "reactor.crash E-Learn @5";
        for i = 1 to n do
          Tracer.event t
            (Printf.sprintf "reactor.restart E-Learn (incarnation %d)" i)
        done);
    let tl = List.hd (Timeline.build (Tracer.spans t)) in
    List.find_map
      (function
        | Timeline.Restart_storm { restarts } -> Some restarts | _ -> None)
      tl.Timeline.tl_anomalies
  in
  Alcotest.(check (option int))
    "storm flagged at the threshold"
    (Some Timeline.restart_storm_threshold)
    (storm Timeline.restart_storm_threshold);
  Alcotest.(check (option int))
    "a single restart is recovery, not a storm" None
    (storm (Timeline.restart_storm_threshold - 1))

(* ------------------------------------------------------------------ *)
(* Bench-regression diffs *)

let diff_snapshot counters =
  let r = Registry.create () in
  List.iter (fun (name, v) -> Metric.add (Registry.counter r name) v) counters;
  Registry.snapshot r

let test_diff_identical_passes () =
  let snap = diff_snapshot [ ("net.messages", 40); ("sld.steps", 900) ] in
  let report = Diff.compare_snapshots ~baseline:snap ~fresh:snap () in
  Alcotest.(check bool) "identical snapshots pass" true report.Diff.r_ok;
  Alcotest.(check int) "everything compared" 2 report.Diff.r_checked;
  Alcotest.(check (list string)) "nothing missing" [] report.Diff.r_missing

let test_diff_regression_fails () =
  let baseline = diff_snapshot [ ("net.messages", 400) ] in
  let fresh = diff_snapshot [ ("net.messages", 1300) ] in
  let report = Diff.compare_snapshots ~baseline ~fresh () in
  Alcotest.(check bool) "2x regression fails" false report.Diff.r_ok;
  (match report.Diff.r_violations with
  | [ v ] ->
      Alcotest.(check string) "names the metric" "net.messages" v.Diff.v_metric;
      let lo, hi = v.Diff.v_allowed in
      Alcotest.(check bool) "band excludes the fresh value" true
        (v.Diff.v_fresh < lo || v.Diff.v_fresh > hi)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* Collapse below the band is lost coverage, equally a failure. *)
  let report' =
    Diff.compare_snapshots ~baseline ~fresh:(diff_snapshot [ ("net.messages", 3) ]) ()
  in
  Alcotest.(check bool) "collapse fails too" false report'.Diff.r_ok

let test_diff_timing_tolerance () =
  (* Wall-clock metrics get the wide timing band: a 3x drift passes
     where a counter would fail. *)
  Alcotest.(check bool) ".ms is timing" true (Diff.is_timing "resolution.deep_chain.ms");
  Alcotest.(check bool) "counter is not" false (Diff.is_timing "net.messages");
  let mk v =
    let r = Registry.create () in
    Metric.set (Registry.gauge r "resolution.deep_chain.ms") v;
    Registry.snapshot r
  in
  let report = Diff.compare_snapshots ~baseline:(mk 600.) ~fresh:(mk 1800.) () in
  Alcotest.(check bool) "3x timing drift tolerated" true report.Diff.r_ok;
  let report' = Diff.compare_snapshots ~baseline:(mk 600.) ~fresh:(mk 9000.) () in
  Alcotest.(check bool) "15x timing drift still fails" false report'.Diff.r_ok

let test_diff_allocation_band () =
  (* Allocation is exact per tree: a .kwords gauge gets the counter
     band, not the wall-clock one, so a 1.6x allocation regression on a
     full-scale workload fails. *)
  Alcotest.(check bool) ".kwords is not timing" false
    (Diff.is_timing "resolution.deep_chain.kwords");
  let mk v =
    let r = Registry.create () in
    Metric.set (Registry.gauge r "resolution.deep_chain.kwords") v;
    Registry.snapshot r
  in
  let base = 512.7302 in
  let same = Diff.compare_snapshots ~baseline:(mk base) ~fresh:(mk base) () in
  Alcotest.(check bool) "same allocation passes" true same.Diff.r_ok;
  let grown =
    Diff.compare_snapshots ~baseline:(mk base) ~fresh:(mk (base *. 1.6)) ()
  in
  Alcotest.(check bool) "1.6x allocation fails" false grown.Diff.r_ok;
  Alcotest.(check (list string)) "violation names the gauge"
    [ "resolution.deep_chain.kwords" ]
    (List.map (fun v -> v.Diff.v_metric) grown.Diff.r_violations)

let test_diff_missing_and_extra () =
  let baseline = diff_snapshot [ ("net.messages", 10); ("net.drops", 5) ] in
  let fresh = diff_snapshot [ ("net.messages", 10); ("guard.rejected", 2) ] in
  let report = Diff.compare_snapshots ~baseline ~fresh () in
  Alcotest.(check bool) "missing metric fails" false report.Diff.r_ok;
  Alcotest.(check (list string)) "missing named" [ "net.drops" ]
    report.Diff.r_missing;
  Alcotest.(check (list string)) "extra is informational" [ "guard.rejected" ]
    report.Diff.r_extra;
  (* Extra alone must not fail the gate — new instrumentation lands
     before its baseline is regenerated. *)
  let fresh' = diff_snapshot [ ("net.messages", 10); ("net.drops", 5); ("x", 1) ] in
  let report' = Diff.compare_snapshots ~baseline ~fresh:fresh' () in
  Alcotest.(check bool) "extra alone passes" true report'.Diff.r_ok

let test_diff_histogram_facets () =
  let mk samples =
    let r = Registry.create () in
    let h = Registry.histogram ~buckets:[| 8.; 64. |] r "negotiation.messages" in
    List.iter (Metric.observe_int h) samples;
    Registry.snapshot r
  in
  let ok =
    Diff.compare_snapshots ~baseline:(mk [ 4; 20 ]) ~fresh:(mk [ 5; 21 ]) ()
  in
  Alcotest.(check bool) "close histograms pass" true ok.Diff.r_ok;
  (* A max blow-up is caught via the .max facet even when count holds. *)
  let bad =
    Diff.compare_snapshots ~baseline:(mk [ 4; 20 ]) ~fresh:(mk [ 4; 4000 ]) ()
  in
  Alcotest.(check bool) "max regression caught" false bad.Diff.r_ok;
  Alcotest.(check bool) "violation names the facet" true
    (List.exists
       (fun v -> v.Diff.v_metric = "negotiation.messages.max")
       bad.Diff.r_violations)

let test_diff_report_json () =
  let baseline = diff_snapshot [ ("net.messages", 400) ] in
  let fresh = diff_snapshot [ ("net.messages", 1300) ] in
  let report = Diff.compare_snapshots ~baseline ~fresh () in
  let j = Diff.report_to_json report in
  Alcotest.(check (option string))
    "machine-readable verdict" (Some "fail")
    (Option.bind (Json.member "verdict" j) Json.to_str);
  Alcotest.(check (option string))
    "schema tag" (Some "peertrust.benchdiff/1")
    (Option.bind (Json.member "schema" j) Json.to_str)

(* ------------------------------------------------------------------ *)
(* Integration: a scenario run feeds the ambient registry and tracer *)

let test_scenario_instrumentation () =
  Obs.reset_metrics ();
  let s = Core.Scenario.scenario1 () in
  let session = s.Core.Scenario.s1_session in
  let clock = Net.Network.clock session.Core.Session.network in
  Obs.set_tracer (Tracer.create ~now:(fun () -> Net.Clock.now clock) ());
  Fun.protect ~finally:Obs.disable_tracing (fun () ->
      let r =
        Core.Reactor.negotiate session ~requester:"Alice" ~target:"E-Learn"
          (Core.Scenario.scenario1_goal ())
      in
      Alcotest.(check bool) "negotiation granted" true
        (Core.Negotiation.succeeded r);
      let snap = Obs.snapshot () in
      let nonzero name =
        Alcotest.(check bool)
          (name ^ " counted") true
          (Registry.counter_value snap name > 0)
      in
      List.iter nonzero
        [
          "reactor.posts"; "engine.answers"; "net.messages";
          "net.messages.query"; "sld.queries"; "sld.steps";
          "negotiation.count"; "negotiation.granted";
        ];
      (match Registry.histogram_snapshot snap "negotiation.messages" with
      | Some hs -> Alcotest.(check int) "one negotiation observed" 1
            hs.Metric.hs_count
      | None -> Alcotest.fail "negotiation.messages histogram missing");
      (* The span tree nests negotiation > delivered query > answer >
         resolution. *)
      let spans = Obs.spans () in
      let find name =
        List.find_opt (fun (sp : Span.t) -> sp.Span.name = name) spans
      in
      let get name =
        match find name with
        | Some sp -> sp
        | None -> Alcotest.failf "missing %S span" name
      in
      let nego = get "negotiation" in
      let query = get "recv.query" in
      let answer = get "answer" in
      let sld = get "sld.solve" in
      Alcotest.(check (option int)) "negotiation is a root" None
        nego.Span.parent;
      Alcotest.(check (option string))
        "query under negotiation (via net.wire)"
        (Some "negotiation")
        (let rec root_of (sp : Span.t) =
           match sp.Span.parent with
           | None -> Some sp.Span.name
           | Some pid -> (
               match
                 List.find_opt (fun (p : Span.t) -> p.Span.id = pid) spans
               with
               | Some p -> root_of p
               | None -> None)
         in
         root_of query);
      Alcotest.(check (option int)) "answer under the delivered query"
        (Some query.Span.id) answer.Span.parent;
      Alcotest.(check bool) "sld.solve nested below answer" true
        (sld.Span.id > answer.Span.id && sld.Span.parent <> None))

(* Every resolution step lands in exactly one per-query histogram
   observation: a negotiation nests solver calls (remote sub-queries enter
   fresh solves from inside an outer solve), and the outer query must not
   re-count the inner queries' steps.  Pins the steps accounting that the
   global-counter-delta scheme used to get wrong (off by the nested
   solves' steps). *)
let test_sld_steps_histogram_consistent () =
  Obs.reset_metrics ();
  let s = Core.Scenario.scenario1 () in
  let session = s.Core.Scenario.s1_session in
  let r =
    Core.Reactor.negotiate session ~requester:"Alice" ~target:"E-Learn"
      (Core.Scenario.scenario1_goal ())
  in
  Alcotest.(check bool) "negotiation granted" true
    (Core.Negotiation.succeeded r);
  let snap = Obs.snapshot () in
  let steps = Registry.counter_value snap "sld.steps" in
  Alcotest.(check bool) "some steps recorded" true (steps > 0);
  match Registry.histogram_snapshot snap "sld.steps_per_query" with
  | None -> Alcotest.fail "sld.steps_per_query histogram missing"
  | Some hs ->
      Alcotest.(check int) "one observation per query"
        (Registry.counter_value snap "sld.queries")
        hs.Metric.hs_count;
      Alcotest.(check int) "histogram sum equals the step counter" steps
        (int_of_float hs.Metric.hs_sum)

(* The tentpole acceptance check: one queued scenario-1 negotiation with
   tracing on yields a single trace whose spans cover several peers, with
   every wire hop's receiver chaining back to the originating
   negotiation root through propagated contexts. *)
let test_cross_peer_trace () =
  Obs.reset_metrics ();
  let s = Core.Scenario.scenario1 ~key_bits:288 () in
  let session = s.Core.Scenario.s1_session in
  let clock = Net.Network.clock session.Core.Session.network in
  let tracer = Tracer.create ~now:(fun () -> Net.Clock.now clock) () in
  Obs.set_tracer tracer;
  Fun.protect ~finally:Obs.disable_tracing (fun () ->
      let report =
        Core.Reactor.negotiate session ~requester:"Alice" ~target:"E-Learn"
          (Core.Scenario.scenario1_goal ())
      in
      Alcotest.(check bool) "granted" true (Core.Negotiation.succeeded report);
      let spans = Tracer.spans tracer in
      let traced = List.filter (fun (sp : Span.t) -> sp.Span.trace <> 0) spans in
      Alcotest.(check bool) "traced spans recorded" true
        (List.length traced > 0);
      Alcotest.(check int) "every span joins the one trace"
        (List.length spans) (List.length traced);
      Alcotest.(check int) "a single trace id" 1
        (List.length
           (List.sort_uniq Int.compare
              (List.map (fun (sp : Span.t) -> sp.Span.trace) traced)));
      let attr_peers =
        List.sort_uniq compare
          (List.filter_map
             (fun (sp : Span.t) ->
               match List.assoc_opt "peer" (Span.attrs sp) with
               | Some (Json.Str p) -> Some p
               | _ -> None)
             traced)
      in
      Alcotest.(check bool)
        (Printf.sprintf "trace covers >= 2 peers (got %s)"
           (String.concat ", " attr_peers))
        true
        (List.length attr_peers >= 2);
      let wires =
        List.filter (fun (sp : Span.t) -> sp.Span.name = "net.wire") traced
      in
      Alcotest.(check bool) "wire transits recorded" true
        (List.length wires > 0);
      (* Cross-wire causality: every delivery span climbs parent links
         back to the negotiation root. *)
      let by_id = Hashtbl.create 64 in
      List.iter (fun (sp : Span.t) -> Hashtbl.replace by_id sp.Span.id sp) traced;
      let rec root_of (sp : Span.t) =
        match sp.Span.parent with
        | None -> sp
        | Some p -> (
            match Hashtbl.find_opt by_id p with
            | Some parent -> root_of parent
            | None -> sp)
      in
      List.iter
        (fun (sp : Span.t) ->
          if
            String.length sp.Span.name >= 5
            && String.sub sp.Span.name 0 5 = "recv."
          then
            Alcotest.(check string)
              (Printf.sprintf "%s (span %d) chains to the root" sp.Span.name
                 sp.Span.id)
              "negotiation"
              (root_of sp).Span.name)
        traced;
      (* And the timeline reconstruction agrees. *)
      match Timeline.build spans with
      | [ tl ] ->
          Alcotest.(check string) "timeline rooted at the negotiation"
            "negotiation"
            (match tl.Timeline.tl_root with
            | Some sp -> sp.Span.name
            | None -> "(none)");
          Alcotest.(check bool) "several peer lanes" true
            (List.length tl.Timeline.tl_lanes >= 2);
          Alcotest.(check bool) "critical path crosses the wire" true
            (List.exists
               (fun (sp : Span.t) -> sp.Span.name = "net.wire")
               tl.Timeline.tl_critical)
      | tls -> Alcotest.failf "expected 1 timeline, got %d" (List.length tls))

(* Tracing off is the default and must stay free: no spans, no context. *)
let test_tracing_off_records_nothing () =
  Obs.reset_metrics ();
  Obs.disable_tracing ();
  let s = Core.Scenario.scenario1 ~key_bits:288 () in
  let report =
    Core.Reactor.negotiate s.Core.Scenario.s1_session ~requester:"Alice"
      ~target:"E-Learn"
      (Core.Scenario.scenario1_goal ())
  in
  Alcotest.(check bool) "granted" true (Core.Negotiation.succeeded report);
  Alcotest.(check int) "no spans recorded" 0 (List.length (Obs.spans ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "clock, events, attrs" `Quick
            test_span_clock_and_events;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "noop tracer" `Quick test_noop_tracer;
        ] );
      ( "trace-context",
        [
          Alcotest.test_case "child re-parents" `Quick test_trace_context_child;
          Alcotest.test_case "mint and cross-trace join" `Quick
            test_tracer_mint_and_join;
          Alcotest.test_case "current context" `Quick
            test_tracer_current_context;
          Alcotest.test_case "unsampled context suppressed" `Quick
            test_tracer_unsampled_suppressed;
          Alcotest.test_case "retrospective record" `Quick
            test_tracer_record_retrospective;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "histogram min/max" `Quick test_histogram_min_max;
          Alcotest.test_case "overflow percentile reports max" `Quick
            test_percentile_overflow_reports_max;
          Alcotest.test_case "percentiles within the observed range" `Quick
            test_percentile_within_observed_range;
          Alcotest.test_case "min/max survive merge" `Quick
            test_min_max_survive_merge;
          Alcotest.test_case "registry merge" `Quick test_registry_merge;
          Alcotest.test_case "reset keeps cells" `Quick
            test_registry_reset_keeps_cells;
        ] );
      ( "export",
        [
          Alcotest.test_case "metrics JSON round-trip" `Quick
            test_metrics_json_roundtrip;
          Alcotest.test_case "min/max in metrics JSON" `Quick
            test_metrics_json_minmax;
          Alcotest.test_case "legacy snapshot without min/max" `Quick
            test_metrics_json_legacy_no_minmax;
          Alcotest.test_case "spans JSONL round-trip" `Quick
            test_spans_jsonl_roundtrip;
          Alcotest.test_case "span tree rendering" `Quick
            test_span_tree_render;
          Alcotest.test_case "chrome trace_event export" `Quick
            test_chrome_export;
          Alcotest.test_case "causal JSONL export" `Quick test_causal_export;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "build, lanes, critical path" `Quick
            test_timeline_build;
          Alcotest.test_case "anomaly flags" `Quick test_timeline_anomalies;
          Alcotest.test_case "restart storm" `Quick
            test_timeline_restart_storm;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical snapshots pass" `Quick
            test_diff_identical_passes;
          Alcotest.test_case "regressions fail" `Quick
            test_diff_regression_fails;
          Alcotest.test_case "timing tolerance is wide" `Quick
            test_diff_timing_tolerance;
          Alcotest.test_case "allocation gets the counter band" `Quick
            test_diff_allocation_band;
          Alcotest.test_case "missing vs extra metrics" `Quick
            test_diff_missing_and_extra;
          Alcotest.test_case "histogram facets" `Quick
            test_diff_histogram_facets;
          Alcotest.test_case "JSON verdict" `Quick test_diff_report_json;
        ] );
      ( "integration",
        [
          Alcotest.test_case "scenario run is instrumented" `Quick
            test_scenario_instrumentation;
          Alcotest.test_case "sld step counter matches histogram" `Quick
            test_sld_steps_histogram_consistent;
          Alcotest.test_case "cross-peer causal trace" `Quick
            test_cross_peer_trace;
          Alcotest.test_case "tracing off records nothing" `Quick
            test_tracing_off_records_nothing;
        ] );
    ]
