(* The benchmark: one seeded workload per run, end-to-end metrics by
   default and per-layer metrics with --trace 1.  The last line of standard
   output is the JSON result; everything before it is for people.  See
   README.md for the workloads, metrics and how to read a traced run. *)

open Meter

module J = Scaguard.Json

(* The metric catalogue, (name, unit) in output order, is BENCHMARK.json's
   [key] list, read from the checkout root the benchmark runs in, so the
   names and units are written down once. *)
let catalogue key =
  let bad what = failwith ("BENCHMARK.json: " ^ what) in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let doc = match J.parse text with Ok d -> d | Error e -> bad e in
  match J.member key doc with
  | Some (J.List l) ->
    List.map
      (fun o ->
        match (J.member "name" o, J.member "unit" o) with
        | Some (J.Str name), Some (J.Str unit_) -> (name, unit_)
        | _ -> bad (key ^ " entry without a name and unit"))
      l
  | _ -> bad ("no " ^ key ^ " list")

(* Orders a workload's metrics by the catalogue, filling layers it does not
   exercise with 0 (see README.md); a name outside the catalogue, or a unit
   that differs from it, is a bug. *)
let complete catalogue measured =
  List.iter
    (fun x ->
      match List.assoc_opt x.name catalogue with
      | Some u when u = x.unit_ -> ()
      | Some u -> failwith (Printf.sprintf "metric %s in %s, catalogued in %s" x.name x.unit_ u)
      | None -> failwith ("metric outside the catalogue: " ^ x.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m name unit_ 0.0)
    catalogue

let workloads = [ ("cold-screen", Cold.run); ("serve-mixed", Serve.run) ]

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans_out = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time per run");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run printing per-layer metrics");
      ("--spans-out", Arg.String (fun f -> spans_out := Some f), "FILE  write the traced run's spans as JSON lines");
      ("--flip-score-bit", Arg.Set flip_score_bit, " self-test: corrupt one checked verdict; the run must fail");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe --workload NAME [options]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
      prerr_endline ("unknown --workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let traced = !trace = 1 in
  let catalogue =
    try catalogue (if traced then "per_layer" else "end_to_end")
    with Failure e | Sys_error e ->
      prerr_endline ("perfbench: " ^ e);
      exit 2
  in
  let probe0 = host_probe_ms () in
  let measured, attempted, failed = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  let probe1 = host_probe_ms () in
  let heap = float !heap_peak_words *. 8.0 /. 1e6 in
  Option.iter write_spans !spans_out;
  let metrics = complete catalogue (if traced then measured else measured @ [ m "heap_peak_mb" "MB" heap ]) in
  Printf.printf "host probe (fixed loop): %.3f ms at start, %.3f ms at end\n" probe0 probe1;
  List.iter (fun x -> Printf.printf "  %-28s %14.6g %s\n" x.name x.value x.unit_) metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

let () =
  try main ()
  with Mismatch msg ->
    Printf.eprintf "perfbench: check failed: %s\n%!" msg;
    exit 1
