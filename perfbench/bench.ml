(* One benchmark iteration of one workload, run in its own process so that
   its peak RSS and GC counters belong to it alone. [run.py] drives this
   binary: it asks for reference digests, repeats iterations for the
   requested number of seconds, and aggregates what each iteration prints.

   Every layer is timed from outside, around calls into its public
   functions; nothing here reaches into [lib/]. Output is one JSON object
   on stdout. *)

module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Cloud = Stopwatch.Cloud
module Scenario = Sw_attack.Scenario
module Audit = Sw_leak.Audit
module Image = Sw_ckpt.Image
module Snapshot = Sw_obs.Snapshot
module Report = Sw_runner.Report
module Time = Sw_sim.Time

(* --- spans -------------------------------------------------------------- *)

(* Spans live in memory until the iteration ends. Untraced iterations keep
   only per-name totals; traced ones also keep every span with its parent,
   so self time (duration minus the children's) can be derived. *)
type span = { id : int; name : string; parent : int; start : float; stop : float }

let traced = ref false
let spans : span list ref = ref []
let totals : (string, float) Hashtbl.t = Hashtbl.create 16
let stack = ref [ 0 ]
let next_id = ref 1
let now = Unix.gettimeofday

let timed name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let start = now () in
  let finish () =
    let stop = now () in
    stack := List.tl !stack;
    let prev = Option.value (Hashtbl.find_opt totals name) ~default:0. in
    Hashtbl.replace totals name (prev +. (stop -. start));
    if !traced then spans := { id; name; parent; start; stop } :: !spans
  in
  Fun.protect ~finally:finish f

let total name = Option.value (Hashtbl.find_opt totals name) ~default:0.

(* Exclusive time per span name: each span's duration minus the durations
   of its direct children. *)
let self_times all =
  let child = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      Hashtbl.replace child s.parent
        (d +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    all;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        s.stop -. s.start
        -. Option.value (Hashtbl.find_opt child s.id) ~default:0.
      in
      Hashtbl.replace self s.name
        (own +. Option.value (Hashtbl.find_opt self s.name) ~default:0.))
    all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

(* --- checks ------------------------------------------------------------- *)

let checks : (string * bool) list ref = ref []
let check name ok = checks := (name, ok) :: !checks

let digest_of_report r = Digest.to_hex (Digest.string (Report.to_string r))

(* --- scenario inputs ---------------------------------------------------- *)

let load path =
  match Dsl.load_file path with
  | Ok scn -> scn
  | Error e -> failwith e

let workload_of path =
  match (load path).Dsl.kind with
  | Dsl.Workload w -> w
  | Dsl.Attack _ -> failwith (path ^ ": not a workload scenario")

(* Sizes: [smoke] is the short form the benchmark's own smoke test runs. *)
type size = { fig4_s : float; fleet_s : float; ckpt_s : float; ckpt_every_s : float }

let full = { fig4_s = 4.; fleet_s = 0.3; ckpt_s = 0.6; ckpt_every_s = 0.1 }
let smoke = { fig4_s = 2.; fleet_s = 0.05; ckpt_s = 0.2; ckpt_every_s = 0.05 }

(* The fleet scenario, re-seeded and cut to length; [hosts]/[stride]/
   [shards] reshape its topology block. *)
let fleet ~seed ~seconds ~hosts ~stride ~shards =
  let w = workload_of "examples/datacenter.scn" in
  let topo =
    match w.Dsl.topology with
    | Some t -> t
    | None -> failwith "datacenter.scn: no topology block"
  in
  {
    w with
    Dsl.seed;
    duration = Time.of_float_s seconds;
    topology =
      Some
        {
          topo with
          Dsl.hosts;
          east_west_stride = stride;
          shards;
          partition = Dsl.Contiguous;
        };
  }

let fleet_shards = 2
let fleet_hosts = 960
let fleet_stride = 80
let ckpt_hosts = 240

(* 80 cells: a quarter-ring stride, as 80 is of the full fleet's 320. *)
let ckpt_stride = 20

let run_report (r : Run.result) =
  Report.Obj
    [
      ("issued", Report.Int r.Run.issued);
      ("completed", Report.Int r.Run.completed);
      ("hits", Report.Int r.Run.hits);
      ("misses", Report.Int r.Run.misses);
      ("p50_ms", Report.Float r.Run.p50_ms);
      ("p99_ms", Report.Float r.Run.p99_ms);
      ( "world",
        Report.of_metrics
          (Snapshot.filter r.Run.metrics ~f:(String.starts_with ~prefix:"workload.")) );
    ]

(* --- per-layer counts from a snapshot ----------------------------------- *)

let sum_counters snap ~f =
  List.fold_left
    (fun acc (name, d) ->
      match d with Snapshot.Counter c when f name -> acc + c | _ -> acc)
    0 (Snapshot.to_list snap)

let has_suffix s name = String.ends_with ~suffix:s name
let has_prefix p name = String.starts_with ~prefix:p name

let ratio a b = if b = 0. then 0. else a /. b

let snapshot_counts snap =
  let c = Snapshot.counter snap in
  let fi = float_of_int in
  let scheduled = c "sim.events.scheduled" in
  let windows = c "sim.shard.windows" in
  let exchanged = sum_counters snap ~f:(has_prefix "sim.shard.exchanged.") in
  let replicated = c "net.ingress.replicated" in
  let retransmissions =
    sum_counters snap ~f:(fun n ->
        has_prefix "net.mcast." n && has_suffix ".retransmissions" n)
  in
  (* [vmm.<m>.…] is per physical machine, [vm<i>.…] per replicated VM. *)
  let per_machine suffix n = has_prefix "vmm." n && has_suffix suffix n in
  let per_vm suffix n =
    has_prefix "vm" n && (not (has_prefix "vmm." n)) && has_suffix suffix n
  in
  [
    ("engine.events", fi (c "sim.events.fired"));
    ("engine.events.net_deliver", fi (c "sim.events.net.deliver.scheduled"));
    ("engine.events.vmm_slice", fi (c "sim.events.vmm.slice.scheduled"));
    ("engine.events.vmm_dom0", fi (c "sim.events.vmm.dom0.scheduled"));
    ("engine.events.disk_complete", fi (c "sim.events.disk.complete.scheduled"));
    ("engine.cancelled_frac", ratio (fi (c "sim.events.cancelled")) (fi scheduled));
    ("engine.queue_depth_max", Snapshot.gauge snap "sim.queue.depth");
    ("net.delivered", fi (c "net.delivered"));
    ("net.ingress.replicated", fi replicated);
    ("net.egress.forwarded", fi (c "net.egress.forwarded"));
    ("net.mcast.retransmit_frac", ratio (fi retransmissions) (fi replicated));
    ("vmm.net_deliveries", fi (sum_counters snap ~f:(per_machine ".net_deliveries")));
    ("vmm.slices", fi (sum_counters snap ~f:(per_machine ".slices")));
    ("vmm.skew_blocks", fi (sum_counters snap ~f:(per_vm ".skew_blocks")));
    ("vmm.divergences", fi (sum_counters snap ~f:(per_vm ".divergences")));
    ("disk.completed", fi (sum_counters snap ~f:(per_machine ".disk.completed")));
    ("conductor.windows", fi windows);
    ("conductor.exchanged", fi exchanged);
    ("conductor.exchanged_per_window", ratio (fi exchanged) (fi windows));
  ]

(* --- workloads ---------------------------------------------------------- *)

type outcome = {
  digest : string;
  sim_s : float;  (** Simulated seconds advanced. *)
  sim_call_s : float;  (** Host seconds spent inside the simulate calls. *)
  snapshot : Snapshot.t option;
  extra : (string * float) list;  (** Workload-specific counts. *)
}

let guest_leaking (a : Audit.t) =
  List.sort_uniq compare
    (List.concat_map
       (fun (f : Audit.finding) ->
         if has_prefix "attacker/" f.Audit.f_key then f.Audit.leaking else [])
       a.Audit.findings)

let fig4_specs ~size ~seed =
  let a =
    match (load "examples/fig4.scn").Dsl.kind with
    | Dsl.Attack a -> a
    | Dsl.Workload _ -> failwith "fig4.scn: not an attack scenario"
  in
  Dsl.attack_specs
    { a with Dsl.seed; duration = Time.of_float_s size.fig4_s }

(* Audit each config pair victim (alt) against no-victim (null), as the
   [leak] CLI command does. *)
let fig4_audits ~registry series =
  let audit label ~baseline =
    let side victim =
      List.find_map
        (fun ((s : Scenario.spec), xs) ->
          if s.Scenario.baseline = baseline && s.Scenario.victim = victim
          then Some xs
          else None)
        series
    in
    match (side false, side true) with
    | Some null, Some alt ->
        let pairs =
          List.filter_map
            (fun (key, n) ->
              Option.map
                (fun a -> { Audit.key; null = n; alt = a })
                (List.assoc_opt key alt))
            null
        in
        timed "leak.audit" (fun () -> Audit.run ~registry ~label pairs)
    | _ -> failwith ("fig4: missing config pair for " ^ label)
  in
  let base = audit "baseline" ~baseline:true in
  let sw = audit "stopwatch" ~baseline:false in
  let report =
    timed "report" (fun () ->
        Report.Obj
          [
            ("name", Report.String "fig4");
            ("leakage", Report.List [ Audit.to_report base; Audit.to_report sw ]);
          ])
  in
  (base, sw, report)

let detector_names =
  List.sort_uniq compare
    (List.map (fun (d : Sw_leak.Detector.t) -> d.Sw_leak.Detector.name)
       Sw_leak.Detector.all)

(* The fig4 grid, run serially through [leak_series], then audited. *)
let fig4_leak ~size ~seed ~profile =
  let specs =
    timed "setup" (fun () ->
        timed "setup.parse" (fun () -> fig4_specs ~size ~seed))
  in
  let series =
    List.map
      (fun (key, (spec : Scenario.spec)) ->
        ( spec,
          timed "sim.run" (fun () ->
              timed ("sim.run." ^ key) (fun () ->
                  Scenario.leak_series { spec with Scenario.profile }) ) ))
      specs
  in
  let registry = Sw_obs.Registry.create () in
  let base, sw, report = fig4_audits ~registry series in
  let leak_snap = Sw_obs.Registry.snapshot registry in
  ignore
    (timed "obs.export" (fun () -> Sw_obs.Export.to_json_string leak_snap));
  let samples =
    List.fold_left
      (fun acc (a : Audit.t) ->
        List.fold_left
          (fun acc (f : Audit.finding) -> acc + f.Audit.n_null + f.Audit.n_alt)
          acc a.Audit.findings)
      0 [ base; sw ]
  in
  let fi = float_of_int in
  {
    digest = digest_of_report report;
    sim_s = size.fig4_s *. fi (List.length specs);
    sim_call_s = total "sim.run";
    snapshot = None;
    extra =
      [
        ("leak.series", fi (Snapshot.counter leak_snap "leak.detector.series"));
        ("leak.verdicts", fi (Snapshot.counter leak_snap "leak.detector.verdicts"));
        ("leak.samples", fi samples);
        ("leak.baseline_flagged", fi (List.length (guest_leaking base)));
        ("leak.stopwatch_flagged", fi (List.length (guest_leaking sw)));
      ];
  }

(* fig4's second route: the four [leak_series] runs on a two-worker runner
   pool instead of serially. The report must not depend on it. *)
let fig4_pooled ~specs =
  let jobs =
    List.map
      (fun (key, spec) ->
        Sw_runner.Job.make ~key (fun ~seed:_ -> (spec, Scenario.leak_series spec)))
      specs
  in
  let series =
    Sw_runner.Pool.with_pool ~workers:2 (fun pool ->
        List.map Sw_runner.Runner.get (Sw_runner.Runner.map ~pool jobs))
  in
  fig4_audits ~registry:(Sw_obs.Registry.create ()) series

(* The fig4 grid's simulated-world counters: [leak_series] returns series
   only, so the same specs run once more through [Scenario.run]. Untimed. *)
let fig4_snapshot ~size ~seed =
  Snapshot.merge_all
    (List.map
       (fun (_, spec) -> (Scenario.run spec).Scenario.metrics)
       (fig4_specs ~size ~seed))

let finish_run (h : Run.handle) =
  let r = timed "obs.finish" h.Run.finish in
  let report = timed "report" (fun () -> run_report r) in
  ignore
    (timed "obs.export" (fun () -> Sw_obs.Export.to_json_string r.Run.metrics));
  (r, digest_of_report report)

let fleet_sharded ~size ~seed =
  let h =
    timed "setup" (fun () ->
        let w =
          timed "setup.parse" (fun () ->
              fleet ~seed ~seconds:size.fleet_s ~hosts:fleet_hosts ~stride:fleet_stride
                ~shards:fleet_shards)
        in
        timed "setup.prepare" (fun () ->
            Run.prepare ~shards:fleet_shards ~partition:`Contiguous w))
  in
  timed "sim.run" (fun () -> Cloud.run h.Run.cloud ~until:h.Run.until);
  let r, digest = finish_run h in
  check "fleet.cross_shard_traffic" (r.Run.cross_shard > 0);
  {
    digest;
    sim_s = Time.to_float_s h.Run.until;
    sim_call_s = total "sim.run";
    snapshot = Some r.Run.metrics;
    extra = [];
  }

(* Checkpoint at every grid instant; at every second one, read the image
   back and continue on the restored cloud. *)
let ckpt_cycle ~size ~seed ~work =
  let h =
    timed "setup" (fun () ->
        let w =
          timed "setup.parse" (fun () ->
              fleet ~seed ~seconds:size.ckpt_s ~hosts:ckpt_hosts ~stride:ckpt_stride
                ~shards:1)
        in
        timed "setup.prepare" (fun () -> Run.prepare w))
  in
  let until = h.Run.until in
  let every = Time.of_float_s size.ckpt_every_s in
  let path = Filename.concat work (Printf.sprintf "ckpt-%d.img" (Unix.getpid ())) in
  let images = ref 0 and restores = ref 0 and bytes = ref 0 in
  let rec drive (h : Run.handle) i =
    let grid = Time.mul_int every i in
    if Time.compare grid until >= 0 then begin
      timed "sim.run" (fun () -> Cloud.run h.Run.cloud ~until);
      h
    end
    else begin
      timed "sim.run" (fun () -> Cloud.run h.Run.cloud ~until:grid);
      let payload =
        timed "ckpt.capture" (fun () -> Cloud.checkpoint h.Run.cloud ~extra:h)
      in
      let meta =
        {
          Image.scenario = "perfbench/ckpt_cycle";
          seed;
          shards = 1;
          index = i;
          sim_ns = grid;
          fingerprint = "";
          payload_digest = Digest.string "";
          payload_len = 0;
        }
      in
      let written = timed "ckpt.write" (fun () -> Image.write ~path meta ~payload) in
      check "ckpt.write" (Result.is_ok written);
      incr images;
      bytes := !bytes + String.length payload;
      if i mod 2 <> 0 then drive h (i + 1)
      else
        match timed "ckpt.read" (fun () -> Image.read ~path) with
        | Error _ ->
            check "ckpt.read_verifies" false;
            drive h (i + 1)
        | Ok (m, payload) -> (
            check "ckpt.read_verifies" (m.Image.index = i);
            match
              timed "ckpt.restore" (fun () ->
                  (Cloud.restore payload : (Cloud.t * Run.handle, _) result))
            with
            | Error _ ->
                check "ckpt.restore_ok" false;
                drive h (i + 1)
            | Ok (_, restored) ->
                check "ckpt.restore_ok" true;
                incr restores;
                drive restored (i + 1))
    end
  in
  let h = drive h 1 in
  (try Sys.remove path with Sys_error _ -> ());
  let r, digest = finish_run h in
  {
    digest;
    sim_s = Time.to_float_s until;
    sim_call_s = total "sim.run";
    snapshot = Some r.Run.metrics;
    extra =
      [
        ("ckpt.images", float_of_int !images);
        ("ckpt.restores", float_of_int !restores);
        ("ckpt.image_bytes", float_of_int (!bytes / max 1 !images));
      ];
  }

(* The result each workload's report must equal, computed another way:
   fleet over one shard, ckpt straight through without checkpoints, fig4 on
   a runner pool. fig4 also checks the [@leak-smoke] verdict on that rule's
   own configuration (fig4.scn's seed, 2 simulated seconds): the baseline
   pair flagged by all five detectors on attacker/* series, the StopWatch
   pair by none. *)
let reference ~size ~seed = function
  | "fleet_sharded" ->
      digest_of_report
        (run_report
           (Run.run ~shards:1
              (fleet ~seed ~seconds:size.fleet_s ~hosts:fleet_hosts ~stride:fleet_stride
                 ~shards:1)))
  | "ckpt_cycle" ->
      digest_of_report
        (run_report
           (Run.run
              (fleet ~seed ~seconds:size.ckpt_s ~hosts:ckpt_hosts
                 ~stride:ckpt_stride ~shards:1)))
  | "fig4_leak" ->
      let _, _, report = fig4_pooled ~specs:(fig4_specs ~size ~seed) in
      let smoke_specs =
        match (load "examples/fig4.scn").Dsl.kind with
        | Dsl.Attack a -> Dsl.attack_specs { a with Dsl.duration = Time.s 2 }
        | Dsl.Workload _ -> failwith "fig4.scn: not an attack scenario"
      in
      let base, sw, _ = fig4_pooled ~specs:smoke_specs in
      check "fig4.smoke_baseline_flagged_by_all" (guest_leaking base = detector_names);
      check "fig4.smoke_stopwatch_flagged_by_none" (guest_leaking sw = []);
      digest_of_report report
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- output ------------------------------------------------------------- *)

let json_float f = Sw_obs.Export.float_repr f
let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let json_floats kvs = json_obj (List.map (fun (k, v) -> (k, json_float v)) kvs)

(* The rule [Cloud.create] uses to pick its conductor driver. *)
let driver () =
  if Domain.recommended_domain_count () > 1 then "domain-gang" else "sequential"

let info () =
  print_endline
    (json_obj
       [
         ("nproc", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml", json_string Sys.ocaml_version);
       ])

let iterate ~workload ~size ~seed ~work ~counts =
  let t0 = now () in
  let profile =
    if !traced && workload = "fig4_leak" then Some (Sw_obs.Profile.create ~enabled:true ())
    else None
  in
  let o =
    timed "iteration" (fun () ->
        match workload with
        | "fig4_leak" -> fig4_leak ~size ~seed ~profile
        | "fleet_sharded" -> fleet_sharded ~size ~seed
        | "ckpt_cycle" -> ckpt_cycle ~size ~seed ~work
        | w -> invalid_arg ("unknown workload " ^ w))
  in
  let wall = now () -. t0 in
  let gc = Gc.quick_stat () in
  let snapshot =
    match o.snapshot with
    | Some s -> Some s
    | None when counts -> Some (fig4_snapshot ~size ~seed)
    | None -> None
  in
  let layer = match snapshot with Some s -> snapshot_counts s | None -> [] in
  Option.iter
    (fun _ -> check "vmm.zero_divergences" (List.assoc "vmm.divergences" layer = 0.))
    snapshot;
  let profile_incl =
    match profile with
    | None -> []
    | Some p ->
        List.map
          (fun (name, ns, _) -> (name ^ "_incl_s", float_of_int ns /. 1e9))
          (Sw_obs.Profile.to_list p)
  in
  let all_spans = List.rev !spans in
  let top_level =
    List.fold_left
      (fun acc s -> if s.parent = 1 then acc +. (s.stop -. s.start) else acc)
      0. all_spans
  in
  let fields =
    [
      ("digest", json_string o.digest);
      ("conductor_driver", json_string (driver ()));
      ( "checks",
        json_obj (List.rev_map (fun (n, ok) -> (n, string_of_bool ok)) !checks) );
      ("wall_s", json_float wall);
      ("sim_s", json_float o.sim_s);
      ("sim_call_s", json_float o.sim_call_s);
      ("times", json_floats (Hashtbl.fold (fun n t acc -> (n, t) :: acc) totals []));
      ("counts", json_floats (layer @ o.extra));
      ( "gc",
        json_floats
          [
            ("gc.minor_words", gc.Gc.minor_words);
            ("gc.promoted_words", gc.Gc.promoted_words);
            ("gc.major_collections", float_of_int gc.Gc.major_collections);
            ( "gc.top_heap_mb",
              float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
          ] );
      ("profile", json_floats profile_incl);
    ]
    @
    if !traced then
      [
        ("residual_s", json_float (total "iteration" -. top_level));
        ("self_s", json_floats (self_times all_spans));
        ( "spans",
          "["
          ^ String.concat ","
              (List.map
                 (fun s ->
                   json_obj
                     [
                       ("name", json_string s.name);
                       ("start", json_float (s.start -. t0));
                       ("end", json_float (s.stop -. t0));
                       ("id", string_of_int s.id);
                       ("parent", string_of_int s.parent);
                     ])
                 all_spans)
          ^ "]" );
      ]
    else []
  in
  print_endline (json_obj fields)

let () =
  let usage =
    "bench.exe (info | iter | reference) --workload W --seed N [--trace] \
     [--counts] [--smoke] [--work DIR]"
  in
  let workload = ref "" and seed = ref 0 and smoke_size = ref false in
  let counts = ref false and work = ref "." and mode = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--trace", Arg.Set traced, "record spans and profile timers");
      ("--counts", Arg.Set counts, "also gather fig4's simulated-world counters");
      ("--smoke", Arg.Set smoke_size, "run the short smoke-test sizes");
      ("--work", Arg.Set_string work, "directory for checkpoint images");
    ]
    (fun m -> mode := m)
    usage;
  let size = if !smoke_size then smoke else full in
  let seed = Int64.of_int !seed in
  match !mode with
  | "info" -> info ()
  | "iter" -> iterate ~workload:!workload ~size ~seed ~work:!work ~counts:!counts
  | "reference" ->
      let digest = reference ~size ~seed !workload in
      print_endline
        (json_obj
           [
             ("digest", json_string digest);
             ( "checks",
               json_obj (List.rev_map (fun (n, ok) -> (n, string_of_bool ok)) !checks) );
           ])
  | _ ->
      prerr_endline usage;
      exit 2
