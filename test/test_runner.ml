(* Tests for sw_runner: deterministic seed derivation, the domain pool,
   crash isolation / retry / timeout semantics, parallel-vs-sequential
   determinism (results and aggregated JSON), cross-domain PRNG ownership,
   and the Summary.merge partition property that parallel aggregation
   leans on. *)

module Seed = Sw_runner.Seed
module Job = Sw_runner.Job
module Pool = Sw_runner.Pool
module Runner = Sw_runner.Runner
module Report = Sw_runner.Report
module Prng = Sw_sim.Prng
module Summary = Sw_sim.Summary

(* --- Seed ---------------------------------------------------------------- *)

let test_seed_deterministic () =
  Alcotest.(check int64) "same key same seed" (Seed.of_key "a") (Seed.of_key "a");
  if Seed.of_key "a" = Seed.of_key "b" then
    Alcotest.fail "distinct keys must give distinct seeds";
  if Seed.of_key ~base:1L "a" = Seed.of_key ~base:2L "a" then
    Alcotest.fail "distinct bases must give distinct seeds";
  if Seed.nth (Seed.of_key "a") 0 = Seed.nth (Seed.of_key "a") 1 then
    Alcotest.fail "distinct replicate indices must give distinct seeds"

let test_job_seed_from_key () =
  let j = Job.make ~key:"k" (fun ~seed -> seed) in
  Alcotest.(check int64) "derived" (Seed.of_key "k") (Job.seed j);
  Alcotest.(check int64) "passed to the closure" (Seed.of_key "k") (Job.run j);
  let j' = Job.make ~seed:42L ~key:"k" (fun ~seed -> seed) in
  Alcotest.(check int64) "explicit seed wins" 42L (Job.run j')

(* --- Pool ---------------------------------------------------------------- *)

let test_pool_runs_all_tasks () =
  let n = 50 in
  let counter = Atomic.make 0 in
  Pool.with_pool ~workers:4 (fun pool ->
      let remaining = Atomic.make n in
      let m = Mutex.create () in
      let c = Condition.create () in
      for _ = 1 to n do
        Pool.submit pool (fun () ->
            Atomic.incr counter;
            if Atomic.fetch_and_add remaining (-1) = 1 then begin
              Mutex.lock m;
              Condition.broadcast c;
              Mutex.unlock m
            end)
      done;
      Mutex.lock m;
      while Atomic.get remaining > 0 do
        Condition.wait c m
      done;
      Mutex.unlock m);
  Alcotest.(check int) "all tasks ran" n (Atomic.get counter)

let test_pool_shutdown_drains () =
  let counter = Atomic.make 0 in
  let pool = Pool.create ~workers:2 () in
  for _ = 1 to 20 do
    Pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "queued tasks ran before join" 20 (Atomic.get counter);
  Alcotest.(check bool) "submit after shutdown rejected" true
    (try
       Pool.submit pool (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* --- Runner semantics ----------------------------------------------------- *)

let int_jobs n = List.init n (fun i -> Job.make ~key:(Printf.sprintf "job%d" i) (fun ~seed:_ -> i))

let test_map_order_stable () =
  Pool.with_pool ~workers:4 (fun pool ->
      let out = Runner.map ~pool (int_jobs 32) in
      Alcotest.(check (list int)) "submission order" (List.init 32 Fun.id)
        (Runner.successes out))

let test_crash_isolation_and_retry () =
  let attempts = Atomic.make 0 in
  let jobs =
    [
      Job.make ~key:"ok" (fun ~seed:_ -> 1);
      Job.make ~key:"boom" (fun ~seed:_ ->
          Atomic.incr attempts;
          failwith "simulated crash");
      Job.make ~key:"also-ok" (fun ~seed:_ -> 3);
    ]
  in
  Pool.with_pool ~workers:2 (fun pool ->
      let out = Runner.map ~pool ~retries:2 ~backoff_s:0. jobs in
      Alcotest.(check (list int)) "other jobs unaffected" [ 1; 3 ]
        (Runner.successes out);
      match Runner.failures out with
      | [ f ] ->
          Alcotest.(check string) "failure names the job" "boom" f.Runner.key;
          Alcotest.(check int) "initial attempt + 2 retries" 3 f.Runner.attempts;
          Alcotest.(check int) "closure really ran 3 times" 3 (Atomic.get attempts);
          (match f.Runner.reason with
          | Runner.Exn msg ->
              if not (String.length msg > 0) then Alcotest.fail "empty reason"
          | Runner.Timed_out _ -> Alcotest.fail "expected Exn reason")
      | fs -> Alcotest.failf "expected exactly 1 failure, got %d" (List.length fs))

let test_retry_recovers () =
  let attempts = Atomic.make 0 in
  let jobs =
    [
      Job.make ~key:"flaky" (fun ~seed:_ ->
          if Atomic.fetch_and_add attempts 1 = 0 then failwith "transient";
          "recovered");
    ]
  in
  let out = Runner.map ~retries:1 ~backoff_s:0. jobs in
  Alcotest.(check (list string)) "second attempt succeeded" [ "recovered" ]
    (Runner.successes out);
  Alcotest.(check int) "exactly two attempts" 2 (Atomic.get attempts)

let test_timeout_detected () =
  let jobs =
    [
      Job.make ~key:"slow" (fun ~seed:_ -> Unix.sleepf 0.05);
      Job.make ~key:"fast" (fun ~seed:_ -> ());
    ]
  in
  let out = Runner.map ~timeout_s:0.01 ~retries:0 jobs in
  (match out with
  | [ Error { key = "slow"; attempts = 1; reason = Runner.Timed_out t }; Ok () ] ->
      if t < 0.01 then Alcotest.failf "reported %.3f s below the limit" t
  | _ -> Alcotest.fail "expected slow to time out and fast to succeed");
  (* Without a timeout the same job is fine. *)
  match Runner.map [ List.hd jobs ] with
  | [ Ok () ] -> ()
  | _ -> Alcotest.fail "no-timeout run should succeed"

let test_events_reported () =
  let events = ref [] in
  let jobs =
    [
      Job.make ~key:"a" (fun ~seed:_ -> ());
      Job.make ~key:"b" (fun ~seed:_ -> failwith "x");
    ]
  in
  Pool.with_pool ~workers:2 (fun pool ->
      ignore
        (Runner.map ~pool ~retries:0 ~on_event:(fun e -> events := e :: !events)
           jobs));
  let finished =
    List.filter (function Runner.Finished _ -> true | _ -> false) !events
  in
  let failed =
    List.filter (function Runner.Attempt_failed _ -> true | _ -> false) !events
  in
  Alcotest.(check int) "one finish" 1 (List.length finished);
  Alcotest.(check int) "one failed attempt" 1 (List.length failed)

(* --- Determinism: -j 1 and -j 4 agree, byte for byte ---------------------- *)

(* Pseudo-simulations: each job runs a PRNG-driven accumulation whose result
   depends only on its pre-dispatch seed. Cheap, but exercises exactly the
   contract real simulations rely on. *)
let sim_jobs =
  List.init 24 (fun i ->
      Job.make ~key:(Printf.sprintf "sim/%d" i) (fun ~seed ->
          let rng = Prng.create seed in
          let s = Summary.create () in
          for _ = 1 to 500 do
            Summary.add s (Prng.exponential rng ~rate:2.)
          done;
          s))

let json_of_outcomes outcomes =
  Report.to_string
    (Report.Obj
       [
         ("merged", Report.of_summary (Runner.merge_summaries outcomes));
         ( "per_job",
           Report.List
             (List.map
                (function
                  | Ok s -> Report.of_summary s
                  | Error f -> Report.of_failure f)
                outcomes) );
       ])

let test_parallel_equals_sequential () =
  let sequential = Runner.map sim_jobs in
  let parallel =
    Pool.with_pool ~workers:4 (fun pool -> Runner.map ~pool sim_jobs)
  in
  (* Byte-identical aggregated JSON: the runner's output carries no
     wall-clock or scheduling artefacts. *)
  Alcotest.(check string) "aggregated JSON identical under -j 4"
    (json_of_outcomes sequential) (json_of_outcomes parallel);
  (* And a 1-worker pool also matches the inline path. *)
  let one_worker =
    Pool.with_pool ~workers:1 (fun pool -> Runner.map ~pool sim_jobs)
  in
  Alcotest.(check string) "1-worker pool matches inline"
    (json_of_outcomes sequential) (json_of_outcomes one_worker)

let test_experiment_jobs_deterministic () =
  (* The real Fig. 5 driver, smallest size: parallel and sequential collect
     to identical outcomes. *)
  let module Ft = Sw_experiments.File_transfer in
  let jobs () =
    Ft.jobs ~protocol:Ft.Http ~stopwatch:false ~size_bytes:1024 ~runs:3 ()
  in
  let seq = Ft.collect (Runner.map (jobs ())) in
  let par =
    Pool.with_pool ~workers:3 (fun pool -> Runner.map ~pool (jobs ()))
    |> Ft.collect
  in
  Alcotest.(check (list (float 0.))) "per-run times identical" seq.Ft.runs
    par.Ft.runs;
  Alcotest.(check int) "divergences identical" seq.Ft.divergences
    par.Ft.divergences

(* --- PRNG cross-domain ownership ----------------------------------------- *)

let test_prng_sibling_splits_across_domains () =
  (* Two generators derived by [split] before dispatch must produce, when
     drawn concurrently on two domains, exactly the sequences they produce
     sequentially — i.e. sibling splits share no state. *)
  let draws = 10_000 in
  let sequence g = Array.init draws (fun _ -> Prng.next_int64 g) in
  let root = Prng.create 0xD0_0D_1EL in
  let g1 = Prng.split root in
  let g2 = Prng.split root in
  let expect1 = sequence (Prng.copy g1) in
  let expect2 = sequence (Prng.copy g2) in
  let d1 = Domain.spawn (fun () -> sequence g1) in
  let d2 = Domain.spawn (fun () -> sequence g2) in
  let got1 = Domain.join d1 and got2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 sequence unperturbed" true (expect1 = got1);
  Alcotest.(check bool) "domain 2 sequence unperturbed" true (expect2 = got2);
  Alcotest.(check bool) "siblings are independent streams" false
    (expect1 = expect2)

(* --- Summary.merge: arbitrary partitions --------------------------------- *)

let prop_summary_merge_partitions =
  QCheck.Test.make ~count:300
    ~name:"merging any partition of a stream equals the single-stream summary"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 60) (float_bound_inclusive 1000.))
        (list_of_size Gen.(0 -- 6) (int_bound 10)))
    (fun (xs, cut_sizes) ->
      (* Split xs into chunks sized by cut_sizes (remainder in a tail
         chunk), summarise each independently, merge left to right. *)
      let whole = Summary.create () in
      List.iter (Summary.add whole) xs;
      let chunks =
        let rec take n = function
          | [] -> ([], [])
          | l when n = 0 -> ([], l)
          | x :: tl ->
              let a, b = take (n - 1) tl in
              (x :: a, b)
        in
        let rec go rest = function
          | [] -> [ rest ]
          | n :: ns ->
              let chunk, rest = take n rest in
              chunk :: go rest ns
        in
        go xs cut_sizes
      in
      let merged =
        List.fold_left
          (fun acc chunk ->
            let s = Summary.create () in
            List.iter (Summary.add s) chunk;
            Summary.merge acc s)
          (Summary.create ()) chunks
      in
      let close a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs a) in
      Summary.count merged = Summary.count whole
      && close (Summary.mean merged) (Summary.mean whole)
      && close (Summary.variance merged) (Summary.variance whole)
      && close (Summary.total merged) (Summary.total whole)
      && Summary.min merged = Summary.min whole
      && Summary.max merged = Summary.max whole)

(* --- Report JSON ---------------------------------------------------------- *)

let test_report_json () =
  let json =
    Report.Obj
      [
        ("s", Report.String "a\"b\\c\nd");
        ("i", Report.Int (-3));
        ("f", Report.Float 1.5);
        ("nan", Report.Float Float.nan);
        ("l", Report.List [ Report.Bool true; Report.Null ]);
      ]
  in
  Alcotest.(check string) "escaping and shape"
    "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"f\":1.5,\"nan\":\"nan\",\"l\":[true,null]}"
    (Report.to_string json);
  (* Pinned bytes for the edge values: signed zero, integral floats past
     1e12, non-finite values, the widest int, a control byte and UTF-8
     (passed through unescaped). *)
  Alcotest.(check string) "edge values"
    "[-0,1e+12,3e+14,\"inf\",\"-inf\",4611686018427387903,\"\\u0001\",\"h\xc3\xa9llo \xe2\x9c\x93\"]"
    (Report.to_string
       (Report.List
          [
            Report.Float (-0.); Report.Float 1e12; Report.Float 3e14;
            Report.Float Float.infinity; Report.Float Float.neg_infinity;
            Report.Int max_int; Report.String "\x01";
            Report.String "h\xc3\xa9llo \xe2\x9c\x93";
          ]));
  (* Float serialisation must round-trip (it feeds byte-equality checks). *)
  List.iter
    (fun f ->
      match Report.to_string (Report.Float f) with
      | s when float_of_string s = f -> ()
      | s -> Alcotest.failf "%h serialised lossily as %s" f s)
    [ 0.1; 1. /. 3.; 1e-300; 123456.789; Float.pi ]

let test_bench_file_shape () =
  let doc =
    Report.bench_file ~workers:4 ~wall_s:1.25
      ~timings:[ ("fig5", 1.25) ]
      ~experiments:[ ("fig5", Report.Obj [ ("rows", Report.List []) ]) ]
      ()
  in
  Alcotest.(check string) "document layout"
    "{\"schema\":\"stopwatch-bench/1\",\"workers\":4,\"experiments\":{\"fig5\":{\"rows\":[]}},\"timing\":{\"total_wall_s\":1.25,\"fig5\":1.25}}"
    (Report.to_string doc)

let () =
  Alcotest.run "sw_runner"
    [
      ( "seed",
        [
          Alcotest.test_case "derivation deterministic" `Quick test_seed_deterministic;
          Alcotest.test_case "job seed from key" `Quick test_job_seed_from_key;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs all tasks" `Quick test_pool_runs_all_tasks;
          Alcotest.test_case "shutdown drains" `Quick test_pool_shutdown_drains;
        ] );
      ( "runner",
        [
          Alcotest.test_case "order stable" `Quick test_map_order_stable;
          Alcotest.test_case "crash isolation + retry" `Quick
            test_crash_isolation_and_retry;
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
          Alcotest.test_case "timeout detected" `Quick test_timeout_detected;
          Alcotest.test_case "events reported" `Quick test_events_reported;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j 1 equals -j 4 (JSON bytes)" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "fig5 jobs parallel = sequential" `Slow
            test_experiment_jobs_deterministic;
          Alcotest.test_case "prng sibling splits across domains" `Quick
            test_prng_sibling_splits_across_domains;
        ] );
      ( "aggregation",
        [ QCheck_alcotest.to_alcotest prop_summary_merge_partitions ] );
      ( "report",
        [
          Alcotest.test_case "json emission" `Quick test_report_json;
          Alcotest.test_case "bench file shape" `Quick test_bench_file_shape;
        ] );
    ]
