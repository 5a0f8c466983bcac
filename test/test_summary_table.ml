open Sched_stats

let test_summary_known () =
  let s = Summary.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "count" 5 s.Summary.count;
  Alcotest.(check (float 1e-9)) "mean" 3. s.Summary.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 5. s.Summary.max;
  Alcotest.(check (float 1e-9)) "p50" 3. s.Summary.p50;
  Alcotest.(check (float 1e-9)) "total" 15. s.Summary.total;
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.5) s.Summary.stddev

let test_summary_single () =
  let s = Summary.of_array [| 7. |] in
  Alcotest.(check (float 1e-9)) "p90 single" 7. s.Summary.p90;
  Alcotest.(check (float 1e-9)) "stddev single" 0. s.Summary.stddev

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty") (fun () ->
      ignore (Summary.of_array [||]))

let test_percentile_interpolation () =
  let s = Summary.of_array [| 10.; 0. |] in
  Alcotest.(check (float 1e-9)) "p50 interp" 5. s.Summary.p50;
  Alcotest.(check (float 1e-9)) "p90 interp" 9. s.Summary.p90;
  Alcotest.(check (float 1e-9)) "p99 interp" 9.9 s.Summary.p99

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.5" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length out > 0 && String.sub out 0 8 = "== demo ");
  (* Numeric column right-aligned: "22" should be preceded by a space
     aligning with "1.5" width. *)
  Alcotest.(check bool) "contains rows" true
    (Test_util.contains out "alpha" && Test_util.contains out "22")

let test_table_row_mismatch () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.(check bool) "raises" true
    (try
       Table.add_row t [ "only-one" ];
       false
     with Invalid_argument _ -> true)

let test_table_csv () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "x,y"; "plain" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv" "a,b\n\"x,y\",plain\n" csv

let test_cell_float () =
  Alcotest.(check string) "nan" "nan" (Table.cell_float Float.nan);
  Alcotest.(check string) "simple" "1.5" (Table.cell_float 1.5);
  Alcotest.(check string) "big int" "12345" (Table.cell_float 12345.)

let test_rows_order () =
  let t = Table.create ~title:"t" ~columns:[ "a" ] in
  Table.add_rows t [ [ "1" ]; [ "2" ]; [ "3" ] ];
  Alcotest.(check (list (list string))) "insertion order" [ [ "1" ]; [ "2" ]; [ "3" ] ]
    (Table.rows t)

let suite =
  [
    Alcotest.test_case "summary known values" `Quick test_summary_known;
    Alcotest.test_case "summary single" `Quick test_summary_single;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table row mismatch" `Quick test_table_row_mismatch;
    Alcotest.test_case "table csv quoting" `Quick test_table_csv;
    Alcotest.test_case "cell float formats" `Quick test_cell_float;
    Alcotest.test_case "rows order" `Quick test_rows_order;
  ]

let test_histogram_counts () =
  let h = Histogram.log_bins ~bins:2 [| 1.; 2.; 4.; 8.; 16. |] in
  match Histogram.counts h with
  | [ (lo1, _, c1); (_, hi2, c2) ] ->
      Alcotest.(check (float 1e-9)) "first lo" 1. lo1;
      Alcotest.(check (float 1e-9)) "last hi" 16. hi2;
      Alcotest.(check int) "total count" 5 (c1 + c2)
  | _ -> Alcotest.fail "two bins"

let test_histogram_render () =
  let h = Histogram.log_bins [| 1.; 1.; 5. |] in
  let out = Histogram.render ~width:20 h in
  Alcotest.(check bool) "has bars" true (Test_util.contains out "#")

let test_histogram_log_bins () =
  let h = Histogram.log_bins ~bins:3 [| 1.; 10.; 100.; 1000. |] in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Histogram.counts h) in
  Alcotest.(check int) "all values binned" 4 total;
  Alcotest.(check bool) "rejects non-positive" true
    (try ignore (Histogram.log_bins [| 0.; 1. |]); false with Invalid_argument _ -> true)

let test_queueing_formulas () =
  (* M/M/1 via the general M/G/1 form. *)
  let es, es2 = Queueing.moments_exponential ~mean:2. in
  let general = Queueing.mg1_mean_flow ~lambda:0.25 ~es ~es2 in
  (* M/M/1: 1 / (mu - lambda) with mu = 1/2. *)
  Alcotest.(check (float 1e-9)) "M/M/1 consistency" (1. /. (0.5 -. 0.25)) general;
  (* Deterministic service halves the waiting of exponential. *)
  let wait es2 = Queueing.mg1_mean_flow ~lambda:0.25 ~es:2. ~es2 -. 2. in
  Alcotest.(check (float 1e-9)) "P-K variance effect" (wait 8. /. 2.) (wait 4.);
  Alcotest.(check bool) "unstable rejected" true
    (try ignore (Queueing.mg1_mean_flow ~lambda:1. ~es:2. ~es2:4.); false
     with Invalid_argument _ -> true)

let test_moments () =
  let es, es2 = Queueing.moments_uniform ~lo:0. ~hi:6. in
  Alcotest.(check (float 1e-9)) "uniform mean" 3. es;
  Alcotest.(check (float 1e-9)) "uniform second moment" 12. es2;
  let es, es2 = Queueing.moments_bimodal ~lo:1. ~hi:3. ~p_hi:0.5 in
  Alcotest.(check (float 1e-9)) "bimodal mean" 2. es;
  Alcotest.(check (float 1e-9)) "bimodal second moment" 5. es2

let suite =
  suite
  @ [
      Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
      Alcotest.test_case "histogram render" `Quick test_histogram_render;
      Alcotest.test_case "histogram log bins" `Quick test_histogram_log_bins;
      Alcotest.test_case "queueing formulas" `Quick test_queueing_formulas;
      Alcotest.test_case "queueing moments" `Quick test_moments;
    ]

let test_chart_renders () =
  let series =
    [
      { Sched_stats.Chart.label = "a"; points = [ (1., 2.); (2., 8.); (4., 64.) ] };
      { Sched_stats.Chart.label = "b"; points = [ (1., 1.); (4., 1.) ] };
    ]
  in
  let out =
    Sched_stats.Chart.render ~log_y:true ~title:"t" ~x_label:"x" ~y_label:"y" series
  in
  Alcotest.(check bool) "svg" true (Test_util.contains out "<svg" && Test_util.contains out "</svg>");
  Alcotest.(check bool) "legend" true (Test_util.contains out ">a<" || Test_util.contains out ">a</text>");
  Alcotest.(check bool) "paths" true (Test_util.contains out "<path")

let test_chart_empty () =
  let out = Sched_stats.Chart.render ~title:"t" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "no data note" true (Test_util.contains out "no data")

let test_chart_log_drops_nonpositive () =
  let series = [ { Sched_stats.Chart.label = "a"; points = [ (1., 0.); (2., -3.) ] } ] in
  let out = Sched_stats.Chart.render ~log_y:true ~title:"t" ~x_label:"x" ~y_label:"y" series in
  Alcotest.(check bool) "degenerates to no data" true (Test_util.contains out "no data")

let test_chart_of_table () =
  let t = Table.create ~title:"fig" ~columns:[ "L"; "ratio"; "note" ] in
  Table.add_row t [ "4"; "1.5"; "x" ];
  Table.add_row t [ "8"; "3.0"; "y" ];
  match Sched_stats.Chart.of_table ~x:"L" t with
  | [ s ] ->
      Alcotest.(check string) "series label" "ratio" s.Sched_stats.Chart.label;
      Alcotest.(check int) "two points" 2 (List.length s.Sched_stats.Chart.points)
  | other -> Alcotest.failf "expected one numeric series, got %d" (List.length other)

let test_chart_of_table_non_numeric_x () =
  let t = Table.create ~title:"fig" ~columns:[ "name"; "v" ] in
  Table.add_row t [ "a"; "1" ];
  Alcotest.(check int) "no series" 0 (List.length (Sched_stats.Chart.of_table ~x:"name" t))

let suite =
  suite
  @ [
      Alcotest.test_case "chart renders" `Quick test_chart_renders;
      Alcotest.test_case "chart empty" `Quick test_chart_empty;
      Alcotest.test_case "chart log drops nonpositive" `Quick test_chart_log_drops_nonpositive;
      Alcotest.test_case "chart of_table" `Quick test_chart_of_table;
      Alcotest.test_case "chart of_table non-numeric x" `Quick test_chart_of_table_non_numeric_x;
    ]
