(* Benchmark regression gate: a schema-versioned baseline file of
   per-phase median wall times, and the comparison logic `bench
   --check` uses to fail the build when a tracked phase regresses.
   Lives in the library (not bench/main.ml) so the pass/fail logic is
   unit-testable on synthetic baselines. *)

let schema = "flexile-bench-baseline"

(* v2: `bench --json` documents gained a "histograms" extra section
   (per-name quantile summaries) alongside "trace".
   v3: a "doctor" phase (fixture diagnosis replay) joins the tracked
   phases and baselines carry a "solver_health" extra section (the
   Trace_export.solver_health_json projection).  In both revisions the
   phase schema the gate reads is unchanged, and [of_json] accepts any
   version <= [version], so committed v1/v2 baselines (BENCH_PR3.json,
   BENCH_PR8.json) stay readable; only files from a *newer* writer are
   rejected. *)
let version = 3

type phase = { pname : string; median_seconds : float }

type baseline = {
  profile : string;
  jobs : int;
  repetitions : int;
  phases : phase list;
}

let median samples =
  match List.sort compare samples with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let nth k = List.nth sorted k in
      if n mod 2 = 1 then nth (n / 2)
      else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.

(* ---- serialization ---- *)

let to_json ?(extra = []) b =
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "{\n  \"schema\": \"%s\",\n  \"version\": %d,\n  \"profile\": \"%s\",\n  \"jobs\": %d,\n  \"repetitions\": %d,\n  \"phases\": [\n"
    schema version (Json.escape b.profile) b.jobs b.repetitions;
  List.iteri
    (fun i p ->
      Printf.bprintf buf "    {\"name\": \"%s\", \"median_seconds\": %.6f}%s\n"
        (Json.escape p.pname) p.median_seconds
        (if i < List.length b.phases - 1 then "," else ""))
    b.phases;
  Buffer.add_string buf "  ]";
  List.iter (fun (k, v) -> Printf.bprintf buf ",\n  \"%s\": %s" k v) extra;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string in
  let int k = Option.bind (Json.member k j) Json.to_int in
  match (str "schema", int "version") with
  | Some s, _ when s <> schema -> Error (Printf.sprintf "unknown schema %S" s)
  | _, Some v when v > version ->
      Error (Printf.sprintf "baseline version %d is newer than supported %d" v version)
  | None, _ | _, None -> Error "missing schema/version fields"
  | Some _, Some _ -> (
      match Option.bind (Json.member "phases" j) Json.to_list with
      | None -> Error "missing phases array"
      | Some items -> (
          let parse_phase it =
            match
              ( Option.bind (Json.member "name" it) Json.to_string,
                Option.bind (Json.member "median_seconds" it) Json.to_float )
            with
            | Some n, Some m -> Some { pname = n; median_seconds = m }
            | _ -> None
          in
          let phases = List.filter_map parse_phase items in
          if List.length phases <> List.length items then
            Error "malformed phase entry"
          else
            Ok
              {
                profile = Option.value ~default:"?" (str "profile");
                jobs = Option.value ~default:0 (int "jobs");
                repetitions = Option.value ~default:1 (int "repetitions");
                phases;
              }))

let load path =
  match Json.parse_file path with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> of_json j

let save path b =
  let oc = open_out path in
  output_string oc (to_json b);
  close_out oc

(* ---- the gate ---- *)

type verdict = {
  vphase : string;
  base_seconds : float;
  current_seconds : float;  (* nan when missing *)
  ratio : float;
  regressed : bool;
}

(* A phase regresses when it exceeds the baseline by more than
   [tolerance_pct] percent AND by more than [min_seconds] absolute —
   the floor keeps sub-hundredth-of-a-second phases from tripping the
   gate on scheduler jitter.  A tracked phase missing from the current
   run is a regression (the measurement disappeared). *)
let check ~baseline ~current ~tolerance_pct ?(min_seconds = 0.02) () =
  List.map
    (fun p ->
      match List.assoc_opt p.pname current with
      | None ->
          {
            vphase = p.pname;
            base_seconds = p.median_seconds;
            current_seconds = Float.nan;
            ratio = Float.nan;
            regressed = true;
          }
      | Some cur ->
          let allowed =
            p.median_seconds *. (1. +. (tolerance_pct /. 100.))
          in
          let regressed =
            cur > allowed && cur -. p.median_seconds > min_seconds
          in
          {
            vphase = p.pname;
            base_seconds = p.median_seconds;
            current_seconds = cur;
            ratio =
              (if p.median_seconds > 0. then cur /. p.median_seconds
               else if cur <= min_seconds then 1.
               else Float.infinity);
            regressed;
          })
    baseline.phases

let passed verdicts = not (List.exists (fun v -> v.regressed) verdicts)

let print_verdicts ~tolerance_pct verdicts =
  Printf.printf "%-28s %12s %12s %8s  %s\n" "phase" "baseline(s)" "current(s)"
    "ratio" "verdict";
  List.iter
    (fun v ->
      if Float.is_nan v.current_seconds then
        Printf.printf "%-28s %12.4f %12s %8s  MISSING\n" v.vphase
          v.base_seconds "-" "-"
      else
        Printf.printf "%-28s %12.4f %12.4f %8.2f  %s\n" v.vphase
          v.base_seconds v.current_seconds v.ratio
          (if v.regressed then "REGRESSED" else "ok"))
    verdicts;
  Printf.printf "gate: %s (tolerance %.0f%%)\n"
    (if passed verdicts then "PASS" else "FAIL")
    tolerance_pct
