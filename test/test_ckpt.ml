(* sw_ckpt: the checkpoint/restore determinism contract (restore-then-run
   is byte-identical to run-straight-through, per shard layout and across
   them), image framing hardening (truncation, corruption, version skew),
   crash-recovery of the store and the soak driver, and divergence
   bisection over two checkpoint timelines. Plus the satellites: PRNG
   stream state round-trips and the trace ring's dropped-counter mirror. *)

module Time = Sw_sim.Time
module Prng = Sw_sim.Prng
module Graft = Sw_sim.Graft
module Cloud = Stopwatch.Cloud
module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Export = Sw_obs.Export
module Snapshot = Sw_obs.Snapshot
module Trace = Sw_obs.Trace
module Event = Sw_obs.Event
module Registry = Sw_obs.Registry
module Image = Sw_ckpt.Image
module Store = Sw_ckpt.Store
module Soak = Sw_ckpt.Soak
module Bisect = Sw_ckpt.Bisect

(* dune runtest runs in _build/default/test; dune exec from the repo root. *)
let scn file =
  let candidates =
    [ Filename.concat "../examples" file; Filename.concat "examples" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Filename.concat "../examples" file

(* Every file a test writes lives in a directory of its own, made fresh
   for this run and removed at exit: no test sees what another test, an
   earlier run or another build left behind. *)
let fresh_dirs = ref []

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  at_exit (fun () ->
      List.iter (fun d -> if Sys.file_exists d then remove_tree d) !fresh_dirs)

let fresh_dir name =
  let d = Filename.temp_dir "sw_ckpt_" ("_" ^ name) in
  fresh_dirs := d :: !fresh_dirs;
  d

let fresh_file name = Filename.concat (fresh_dir name) name

let load file =
  match Dsl.load_file (scn file) with
  | Ok t -> t
  | Error e -> Alcotest.failf "%s failed to load: %s" file e

let small_workload () =
  match load "diurnal.scn" with
  | { Dsl.kind = Dsl.Workload w; _ } ->
      { w with Dsl.duration = Time.ms 400; load_multipliers = [ 1. ] }
  | _ -> Alcotest.fail "diurnal.scn is not a workload"

let slowdown ~at_ms ~factor =
  {
    Sw_fault.Schedule.at = Time.ms at_ms;
    span = Time.ms 150;
    fault = Sw_fault.Fault.Machine_slowdown { machine = 0; factor };
  }

(* Everything a result says, as one string: equal bytes = equal runs. *)
let result_bytes (r : Run.result) =
  Printf.sprintf "issued=%d completed=%d hits=%d misses=%d p50=%h p99=%h %s"
    r.Run.issued r.Run.completed r.Run.hits r.Run.misses r.Run.p50_ms
    r.Run.p99_ms
    (Export.to_json_string r.Run.metrics)

let restore_exn image =
  match Cloud.restore image with
  | Ok pair -> pair
  | Error e ->
      Alcotest.failf "restore failed: %s"
        (Format.asprintf "%a" Cloud.pp_restore_error e)

(* --- checkpoint/restore determinism --------------------------------------- *)

(* One prepared scenario, three executions: straight through; paused at
   [frac] of the horizon and continued; and restored from the pause-point
   checkpoint in a fresh heap. All three must agree to the byte. *)
let three_way ?shards w ~frac =
  let straight =
    let h = Run.prepare ?shards w in
    Cloud.run h.Run.cloud ~until:h.Run.until;
    result_bytes (h.Run.finish ())
  in
  let h = Run.prepare ?shards w in
  let mid = Time.scale h.Run.until frac in
  Cloud.run h.Run.cloud ~until:mid;
  let image = Cloud.checkpoint h.Run.cloud ~extra:h in
  Cloud.run h.Run.cloud ~until:h.Run.until;
  let paused = result_bytes (h.Run.finish ()) in
  let _cloud, (h' : Run.handle) = restore_exn image in
  Cloud.run h'.Run.cloud ~until:h'.Run.until;
  let restored = result_bytes (h'.Run.finish ()) in
  (straight, paused, restored)

let prop_restore_roundtrip =
  QCheck.Test.make ~count:5
    ~name:"restore-then-run = run-straight-through (single shard)"
    QCheck.(triple int64 (float_range 0.2 0.8) bool)
    (fun (seed, frac, with_fault) ->
      let w = small_workload () in
      let w =
        {
          w with
          Dsl.seed;
          faults = (if with_fault then [ slowdown ~at_ms:150 ~factor:2. ] else []);
        }
      in
      let straight, paused, restored = three_way w ~frac in
      straight = paused && straight = restored)

let contract_bytes metrics =
  Export.to_json_string
    (Snapshot.filter metrics ~f:(fun name ->
         not (String.length name >= 4 && String.sub name 0 4 = "sim.")))

let datacenter_workload () =
  let w = small_workload () in
  {
    w with
    Dsl.duration = Time.ms 300;
    topology =
      Some
        {
          Dsl.hosts = 12;
          shards = 1;
          east_west_rate_per_s = 40.;
          east_west_stride = 1;
          partition = Dsl.Contiguous;
          replica_link_us = None;
          quantum_us = None;
        };
  }

(* The sharded conductor (engines, cross-shard inboxes, lookahead cursor)
   checkpoints too: a 4-shard run restored mid-window finishes exactly like
   the uninterrupted one, and still matches the 1-shard run outside
   [sim.*]. *)
let test_sharded_roundtrip () =
  let w = datacenter_workload () in
  let straight4, paused4, restored4 = three_way ~shards:4 w ~frac:0.5 in
  Alcotest.(check string) "pause/continue, 4 shards" straight4 paused4;
  Alcotest.(check string) "restore-then-run, 4 shards" straight4 restored4;
  let h1 = Run.prepare ~shards:1 w in
  Cloud.run h1.Run.cloud ~until:h1.Run.until;
  let r1 = h1.Run.finish () in
  let _cloud, (h4 : Run.handle) =
    let h = Run.prepare ~shards:4 w in
    let mid = Time.scale h.Run.until 0.5 in
    Cloud.run h.Run.cloud ~until:mid;
    restore_exn (Cloud.checkpoint h.Run.cloud ~extra:h)
  in
  Cloud.run h4.Run.cloud ~until:h4.Run.until;
  let r4 = h4.Run.finish () in
  Alcotest.(check string) "restored 4-shard = straight 1-shard (non-sim.*)"
    (contract_bytes r1.Run.metrics)
    (contract_bytes r4.Run.metrics)

(* Extension-constructor slots lose physical identity through Marshal;
   Graft.repair points them back at this process's live slots, which is
   what makes restored payloads pattern-match again. *)
let test_graft_repairs_slots () =
  let bytes = Marshal.to_string Sw_net.Packet.Empty [ Marshal.Closures ] in
  let boxed = ref (Marshal.from_string bytes 0 : Sw_net.Packet.payload) in
  (match Graft.repair (Obj.repr boxed) with
  | Ok stats ->
      Alcotest.(check bool) "patched a slot" true (stats.Graft.patched >= 1)
  | Error names ->
      Alcotest.failf "unregistered slots: %s" (String.concat ", " names));
  match !boxed with
  | Sw_net.Packet.Empty -> ()
  | _ -> Alcotest.fail "repaired payload does not match Empty"

(* A synthetic graph sized and shaped so every count the walk reports is
   known in advance: a ring of [cells] records (a cycle, each cell with a
   [Background] block of its own, a reference to one [Background] block all
   cells share, and a bare [Empty] slot), plus [pairs] mutually recursive
   closure pairs, reached through both functions, that capture a
   [Background] payload. *)
type cell = {
  own : Sw_net.Packet.payload;
  shared : Sw_net.Packet.payload;
  empty : Sw_net.Packet.payload;
  mutable next : cell option;
}

type graph = {
  ring : cell array;
  evens : (int -> Sw_net.Packet.payload) array;
  odds : (int -> Sw_net.Packet.payload) array;
}

let closure_pair p =
  let rec even n = if n = 0 then p else odd (n - 1)
  and odd n = if n = 0 then Sw_net.Packet.Empty else even (n - 1) in
  (even, odd)

let synthetic_graph ~cells ~pairs =
  let shared = Sw_net.Packet.Background (Sys.opaque_identity (-1)) in
  let ring =
    Array.init cells (fun i ->
        { own = Sw_net.Packet.Background i; shared; empty = Sw_net.Packet.Empty;
          next = None })
  in
  Array.iteri (fun i c -> c.next <- Some ring.((i + 1) mod cells)) ring;
  let closures = Array.init pairs (fun j -> closure_pair (Sw_net.Packet.Background j)) in
  { ring; evens = Array.map fst closures; odds = Array.map snd closures }

let marshal_round_trip (v : 'a) : 'a =
  Marshal.from_string (Marshal.to_string v [ Marshal.Closures ]) 0

let repair_exn v =
  match Graft.repair (Obj.repr v) with
  | Ok stats -> stats
  | Error names -> Alcotest.failf "unregistered slots: %s" (String.concat ", " names)

(* Past the visited set's initial capacity, through cycles, sharing and
   infix pointers, the walk counts every scannable block exactly once and
   patches every slot reference exactly once — and the repaired graph
   pattern-matches again. *)
let test_graft_synthetic_graph () =
  let cells = 40_000 and pairs = 1_000 in
  let live = synthetic_graph ~cells ~pairs in
  Alcotest.(check bool) "odd is an infix pointer" true
    (Obj.tag (Obj.repr live.odds.(0)) = Obj.infix_tag);
  let g = marshal_round_trip live in
  let stats = repair_exn g in
  (* Blocks: the root and its three arrays; per cell its record, its
     [Some] box and its own payload; the shared payload; per pair one
     closure block (both functions point into it) and its payload. The
     slots themselves are patched, never visited. *)
  Alcotest.(check int) "visited" (4 + (3 * cells) + 1 + (2 * pairs))
    stats.Graft.visited;
  (* Slot references: per cell [own]'s and [empty]; the shared payload's
     once; per pair its payload's. *)
  Alcotest.(check int) "patched" ((2 * cells) + 1 + pairs) stats.Graft.patched;
  Array.iteri
    (fun i c ->
      (match c.own with
      | Sw_net.Packet.Background j when j = i -> ()
      | _ -> Alcotest.failf "cell %d: own payload does not match" i);
      (match c.empty with
      | Sw_net.Packet.Empty -> ()
      | _ -> Alcotest.failf "cell %d: Empty does not match" i);
      match c.next with
      | Some n when n == g.ring.((i + 1) mod cells) -> ()
      | _ -> Alcotest.failf "cell %d: ring link lost" i)
    g.ring;
  Alcotest.(check bool) "shared payload stays shared" true
    (Array.for_all (fun c -> c.shared == g.ring.(0).shared) g.ring);
  (match g.ring.(0).shared with
  | Sw_net.Packet.Background -1 -> ()
  | _ -> Alcotest.fail "shared payload does not match");
  Array.iteri
    (fun j odd ->
      match (g.evens.(j) 2, odd 1) with
      | Sw_net.Packet.Background a, Sw_net.Packet.Background b
        when a = j && b = j -> ()
      | _ -> Alcotest.failf "closure pair %d: captured payload does not match" j)
    g.odds;
  (* Everything is live now: a second walk sees the same blocks and has
     nothing left to patch. *)
  let again = repair_exn g in
  Alcotest.(check int) "second walk visits the same" stats.Graft.visited
    again.Graft.visited;
  Alcotest.(check int) "second walk patches nothing" 0 again.Graft.patched

(* Never registered with [Graft]: a restored graph carrying it cannot be
   trusted. *)
type Sw_net.Packet.payload += Stray of int

let test_graft_unregistered_slot () =
  let stray = Obj.Extension_constructor.name [%extension_constructor Stray] in
  let g =
    marshal_round_trip
      (Array.init 500 (fun i ->
           if i mod 2 = 0 then Stray i else Sw_net.Packet.Background i))
  in
  (match Graft.repair (Obj.repr g) with
  | Ok _ -> Alcotest.fail "unregistered slot accepted"
  | Error names -> Alcotest.(check (list string)) "named once" [ stray ] names);
  (* The walk still finished: every registered slot was repaired. *)
  Array.iteri
    (fun i p ->
      match p with
      | Sw_net.Packet.Background j when i mod 2 = 1 && j = i -> ()
      | _ when i mod 2 = 0 -> ()
      | _ -> Alcotest.failf "payload %d not repaired" i)
    g

(* --- image framing --------------------------------------------------------- *)

let meta ~index ~sim_ns =
  {
    Image.scenario = "test-scenario";
    seed = 7L;
    shards = 1;
    index;
    sim_ns;
    fingerprint = "fp";
    payload_digest = Digest.string "";
    payload_len = 0;
  }

let write_exn path ~payload =
  match Image.write ~path (meta ~index:0 ~sim_ns:(Time.ns 5)) ~payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Image.error_to_string e)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let expect_read_error path check =
  match Image.read ~path with
  | Ok _ -> Alcotest.failf "%s unexpectedly read back" path
  | Error e ->
      if not (check e) then
        Alcotest.failf "%s: wrong error: %s" path (Image.error_to_string e)

let test_image_roundtrip () =
  let payload = String.init 4096 (fun i -> Char.chr (i * 31 mod 256)) in
  let path = fresh_file "ok.img" in
  write_exn path ~payload;
  match Image.read ~path with
  | Error e -> Alcotest.failf "read failed: %s" (Image.error_to_string e)
  | Ok (m, p) ->
      Alcotest.(check string) "payload" payload p;
      Alcotest.(check int) "payload_len" (String.length payload) m.Image.payload_len;
      Alcotest.(check string) "scenario" "test-scenario" m.Image.scenario

let test_image_truncated () =
  let payload = String.make 2048 'x' in
  let path = fresh_file "trunc.img" in
  write_exn path ~payload;
  let bytes = read_file path in
  (* Cut inside the payload, inside the header, and inside the preamble. *)
  List.iter
    (fun keep ->
      write_file path (String.sub bytes 0 keep);
      expect_read_error path (function
        | Image.Truncated -> true
        | _ -> false))
    [ String.length bytes - 100; 40; 3 ]

let test_image_corrupt () =
  let payload = String.make 2048 'x' in
  let path = fresh_file "corrupt.img" in
  write_exn path ~payload;
  let bytes = Bytes.of_string (read_file path) in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
  write_file path (Bytes.to_string bytes);
  expect_read_error path (function
    | Image.Corrupt _ -> true
    | _ -> false)

let test_image_version_and_magic () =
  let path = fresh_file "vers.img" in
  write_exn path ~payload:"p";
  let bytes = read_file path in
  (* Bytes 6-7 are the two ASCII version digits. *)
  let bumped = Bytes.of_string bytes in
  Bytes.blit_string "99" 0 bumped 6 2;
  write_file path (Bytes.to_string bumped);
  expect_read_error path (function
    | Image.Version_mismatch { found = 99; expected = 2 } -> true
    | _ -> false);
  write_file path ("XXXXXX" ^ String.sub bytes 6 (String.length bytes - 6));
  expect_read_error path (function
    | Image.Bad_magic -> true
    | _ -> false)

(* A v1 image (boxed int64 [sim_ns] in its header) is rejected by its
   version digits before its header is unmarshalled. *)
let test_image_v1_rejected () =
  let path = fresh_file "v1.img" in
  write_exn path ~payload:"p";
  let v1 = Bytes.of_string (read_file path) in
  Bytes.blit_string "01" 0 v1 6 2;
  write_file path (Bytes.to_string v1);
  expect_read_error path (function
    | Image.Version_mismatch { found = 1; expected = 2 } -> true
    | _ -> false)

(* A crash mid-write must never cost the timeline: writes go to a temp
   file first, and recovery walks past any half-written newer image. *)
let test_store_crash_mid_write () =
  let dir = fresh_dir "store_crash" in
  (match Store.ensure_dir dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ensure_dir: %s" (Image.error_to_string e));
  let payload = String.make 512 'a' in
  (match
     Image.write ~path:(Store.path dir ~index:0) (meta ~index:0 ~sim_ns:(Time.ns 5))
       ~payload
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" (Image.error_to_string e));
  (* Simulate a crash mid-write of the next image: valid preamble, cut
     body. *)
  let good = read_file (Store.path dir ~index:0) in
  write_file (Store.path dir ~index:1)
    (String.sub good 0 (String.length good - 200));
  (* And a stray temp file from the same crash. *)
  write_file (Store.path dir ~index:2 ^ ".tmp") "half";
  match Store.latest_valid dir with
  | None -> Alcotest.fail "prior image not recovered"
  | Some (entry, recovered, rejected) ->
      Alcotest.(check int) "recovered index" 0 entry.Store.index;
      Alcotest.(check string) "recovered payload" payload recovered;
      Alcotest.(check int) "newer image rejected" 1 (List.length rejected)

(* --- soak ------------------------------------------------------------------ *)

let soak_scenario ?(faults = []) ~name ~seed () =
  let w = small_workload () in
  { Dsl.name; kind = Dsl.Workload { w with Dsl.seed; faults } }

let run_soak ?kill_after ~dir scenario =
  Soak.run ~scenario ~dir ~every:(Time.ms 100) ?kill_after ()

let soak_exn ?kill_after ~dir scenario =
  match run_soak ?kill_after ~dir scenario with
  | Ok o -> o
  | Error e -> Alcotest.failf "soak: %s" (Format.asprintf "%a" Soak.pp_error e)

(* Kill the soak after every single checkpoint; the chain of resumed runs
   must end with a report byte-identical to one uninterrupted run. *)
let test_soak_survives_kills () =
  let scenario = soak_scenario ~name:"soak-kill" ~seed:11L () in
  let uninterrupted = soak_exn ~dir:(fresh_dir "soak_straight") scenario in
  let crashed = fresh_dir "soak_crashed" in
  let rec crash_loop n =
    if n > 50 then Alcotest.fail "soak never finished"
    else
      match run_soak ~kill_after:1 ~dir:crashed scenario with
      | exception Soak.Killed _ -> crash_loop (n + 1)
      | Ok o -> o
      | Error e ->
          Alcotest.failf "soak: %s" (Format.asprintf "%a" Soak.pp_error e)
  in
  let survived = crash_loop 0 in
  Alcotest.(check bool) "actually resumed" true
    (survived.Soak.resumed_from <> None);
  Alcotest.(check string) "report bytes"
    (result_bytes uninterrupted.Soak.result)
    (result_bytes survived.Soak.result);
  Alcotest.(check int) "same horizon" uninterrupted.Soak.sim_ns
    survived.Soak.sim_ns

(* --- warm-start cache ------------------------------------------------------ *)

(* First use builds and checkpoints the prepared t=0 cloud; the second
   restores it. Both runs — and a cold build that never touched the cache
   — must produce the same report bytes, and a corrupted image silently
   falls back to a rebuild. *)
let test_warm_build_then_restore () =
  let w = datacenter_workload () in
  let dir = fresh_dir "warm_cache" in
  let key = "warm-test:shards=2" in
  let builds = ref 0 in
  let build () =
    incr builds;
    Run.prepare ~shards:2 w
  in
  let go () =
    match Sw_ckpt.Warm.load_or_build ~dir ~key ~seed:w.Dsl.seed ~shards:2 ~build with
    | Error e -> Alcotest.failf "warm: %s" e
    | Ok (h, status) ->
        Cloud.run h.Run.cloud ~until:h.Run.until;
        (contract_bytes (h.Run.finish ()).Run.metrics, status)
  in
  let bytes_built, s1 = go () in
  let bytes_restored, s2 = go () in
  Alcotest.(check bool) "first use builds" true (s1 = Sw_ckpt.Warm.Built);
  Alcotest.(check bool) "second use restores" true (s2 = Sw_ckpt.Warm.Restored);
  Alcotest.(check int) "built exactly once" 1 !builds;
  let cold =
    let h = Run.prepare ~shards:2 w in
    Cloud.run h.Run.cloud ~until:h.Run.until;
    contract_bytes (h.Run.finish ()).Run.metrics
  in
  Alcotest.(check string) "built-and-run = cold" cold bytes_built;
  Alcotest.(check string) "restored-and-run = cold" cold bytes_restored;
  (* A flipped bit in the image must cost a rebuild, never a wrong run. *)
  let path = Sw_ckpt.Warm.image_path ~dir ~key in
  let img = read_file path in
  write_file path (String.sub img 0 (String.length img - 64));
  let bytes_again, s3 = go () in
  Alcotest.(check bool) "corrupt image rebuilt" true (s3 = Sw_ckpt.Warm.Built);
  Alcotest.(check int) "rebuild counted" 2 !builds;
  Alcotest.(check string) "rebuilt run = cold" cold bytes_again

(* Resuming over a directory seeded by a different scenario is refused —
   never silently replayed. *)
let test_soak_wrong_scenario () =
  let a = soak_scenario ~name:"soak-owner" ~seed:1L () in
  let b = soak_scenario ~name:"soak-owner" ~seed:2L () in
  let dir = fresh_dir "soak_owned" in
  ignore (soak_exn ~dir a);
  match run_soak ~dir b with
  | Error (Soak.Wrong_scenario _) -> ()
  | Ok _ -> Alcotest.fail "foreign scenario resumed"
  | Error e ->
      Alcotest.failf "wrong error: %s" (Format.asprintf "%a" Soak.pp_error e)

(* A corrupt newest image costs one interval, not the run: the soak falls
   back to the previous valid image and still finishes identically. *)
let test_soak_falls_back_past_corrupt_image () =
  let scenario = soak_scenario ~name:"soak-corrupt" ~seed:3L () in
  let reference = soak_exn ~dir:(fresh_dir "soak_ref") scenario in
  let cut = fresh_dir "soak_cut" in
  (match run_soak ~kill_after:3 ~dir:cut scenario with
  | exception Soak.Killed _ -> ()
  | _ -> Alcotest.fail "kill_after did not fire");
  let newest = Store.path cut ~index:2 in
  let bytes = read_file newest in
  write_file newest (String.sub bytes 0 (String.length bytes - 64));
  let resumed = soak_exn ~dir:cut scenario in
  Alcotest.(check (option int)) "resumed from the previous image" (Some 1)
    resumed.Soak.resumed_from;
  Alcotest.(check int) "the corrupt image was reported" 1
    resumed.Soak.images_skipped;
  Alcotest.(check string) "report bytes"
    (result_bytes reference.Soak.result)
    (result_bytes resumed.Soak.result)

(* --- bisect ---------------------------------------------------------------- *)

(* Two runs identical until t=250ms, where one side's planted fault is a
   no-op (factor 1.0) and the other's a real slowdown: bisection must name
   the first post-fault checkpoint, the metrics that moved, and a first
   divergent trace event inside the window. *)
(* [Bisect.pp_divergence] for the planted divergence below, as recorded
   before simulated time became an immediate int. *)
let planted_divergence_report =
  {|first divergent checkpoint: #2 at 300000000ns (last agreement: #1)
  net.delivered: A=1333 B=1327
  net.link.vmm0.egress.delivered: A=83 B=77
  vmm.0.dom0_ns: A=28850000 B=28550000
  vmm.0.slices: A=1501 B=1376
  vmm.0.vm0.disk_interrupts: A=16 B=15
  vmm.0.vm0.inter_delivery_ns: A=histogram(count=74,total=274200000ns) B=histogram(count=69,total=244600000ns)
  vmm.0.vm0.median.source.r0: A=25.166666666666647 B=21.833333333333325
  vmm.0.vm0.median.source.r1: A=26.166666666666643 B=27.833333333333321
  vmm.0.vm0.median.source.r2: A=25.666666666666643 B=27.333333333333321
  vmm.0.vm0.net_deliveries: A=75 B=70
  vmm.1.vm0.median.source.r0: A=25.166666666666647 B=21.833333333333325
  vmm.1.vm0.median.source.r1: A=26.166666666666643 B=27.833333333333321
  vmm.1.vm0.median.source.r2: A=25.666666666666643 B=27.333333333333321
  vmm.2.vm0.median.source.r0: A=25.166666666666647 B=21.833333333333325
  vmm.2.vm0.median.source.r1: A=26.166666666666643 B=27.833333333333321
  vmm.2.vm0.median.source.r2: A=25.666666666666643 B=27.333333333333321
  workload.cls.large.response_ns: A=histogram(count=4,total=233099709ns) B=histogram(count=4,total=233220296ns)
  workload.cls.small.response_ns: A=histogram(count=23,total=590452193ns) B=histogram(count=23,total=590698910ns)
  workload.response_hit_ns: A=histogram(count=13,total=245322475ns) B=histogram(count=13,total=245459410ns)
  workload.response_miss_ns: A=histogram(count=16,total=631572175ns) B=histogram(count=16,total=631802544ns)
  ... and 1 more metrics
  first divergent event (position 928):
    A: [250.200ms] vm-exit    vm0/r0@m0 exit at virt=250.200ms instr=250200000
    B: [250.200ms] vm-exit    vm0/r1@m1 exit at virt=250.200ms instr=250200000
|}

let test_bisect_finds_planted_divergence () =
  let mk factor name =
    soak_scenario ~name ~seed:5L
      ~faults:[ slowdown ~at_ms:250 ~factor ] ()
  in
  let a = fresh_dir "bisect_a" and b = fresh_dir "bisect_b" in
  ignore (soak_exn ~dir:a (mk 1.0 "bisect"));
  ignore (soak_exn ~dir:b (mk 2.0 "bisect"));
  match Bisect.first_divergence ~a ~b with
  | Error e ->
      Alcotest.failf "bisect: %s" (Format.asprintf "%a" Bisect.pp_error e)
  | Ok d ->
      (* Grid every 100ms; the fault lands at 250ms, so checkpoints 0-1
         agree and #2 (t=300ms) is the first divergent one. *)
      Alcotest.(check int) "first divergent checkpoint" 2 d.Bisect.index;
      Alcotest.(check int) "at the grid instant" 300_000_000 d.Bisect.sim_ns;
      Alcotest.(check (option int)) "last agreement" (Some 1)
        d.Bisect.last_common;
      Alcotest.(check bool) "metrics moved" true (d.Bisect.metric_diff <> []);
      (match d.Bisect.first_event with
      | None -> Alcotest.fail "divergent window was not replayed"
      | Some (_, ea, eb) ->
          Alcotest.(check bool) "both sides produced an event" true
            (ea <> None && eb <> None));
      (* The printed report is byte-identical to the one int64-time builds
         printed for this scenario. *)
      Alcotest.(check string) "report bytes" planted_divergence_report
        (Format.asprintf "%a" Bisect.pp_divergence d)

let test_bisect_agreement_is_not_divergence () =
  let scenario = soak_scenario ~name:"bisect-same" ~seed:9L () in
  let a = fresh_dir "bisect_same_a" and b = fresh_dir "bisect_same_b" in
  ignore (soak_exn ~dir:a scenario);
  ignore (soak_exn ~dir:b scenario);
  match Bisect.first_divergence ~a ~b with
  | Error (Bisect.No_divergence { compared }) ->
      Alcotest.(check bool) "compared several" true (compared > 2)
  | Ok _ -> Alcotest.fail "identical runs reported divergent"
  | Error e ->
      Alcotest.failf "bisect: %s" (Format.asprintf "%a" Bisect.pp_error e)

(* --- satellites ------------------------------------------------------------ *)

let test_prng_state_roundtrip () =
  let g = Prng.create 42L in
  for _ = 1 to 17 do
    ignore (Prng.next_int64 g)
  done;
  let st = Prng.export g in
  let ahead = List.init 5 (fun _ -> Prng.next_int64 g) in
  let replayed =
    let g' = Prng.import st in
    List.init 5 (fun _ -> Prng.next_int64 g')
  in
  Alcotest.(check (list int64)) "import replays the stream" ahead replayed;
  let text = Prng.state_to_string st in
  (match Prng.state_of_string text with
  | Error e -> Alcotest.failf "state_of_string: %s" e
  | Ok st' ->
      Alcotest.(check string) "textual state round-trips" text
        (Prng.state_to_string st'));
  match Prng.state_of_string "not-a-state" with
  | Ok _ -> Alcotest.fail "garbage state accepted"
  | Error _ -> ()

let test_trace_dropped_mirror () =
  let reg = Registry.create () in
  let tr = Trace.create ~capacity:4 ~metrics:reg () in
  Trace.enable tr;
  for i = 1 to 10 do
    Trace.emit tr ~at_ns:(Int64.of_int i) (Event.Span_begin { name = "m" })
  done;
  let mirror () = Snapshot.counter (Registry.snapshot reg) "trace.dropped" in
  Alcotest.(check int) "ring counted drops" 6 (Trace.dropped tr);
  Alcotest.(check int) "registry mirror agrees" 6 (mirror ());
  Trace.clear tr;
  Alcotest.(check int) "clear zeroes the ring" 0 (Trace.dropped tr);
  Alcotest.(check int) "clear zeroes the mirror" 0 (mirror ())

let () =
  Alcotest.run "sw_ckpt"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest prop_restore_roundtrip;
          Alcotest.test_case "sharded restore (4 shards, vs 1)" `Slow
            test_sharded_roundtrip;
          Alcotest.test_case "graft repairs marshalled slots" `Quick
            test_graft_repairs_slots;
          Alcotest.test_case "graft walks cycles, sharing, infix closures"
            `Quick test_graft_synthetic_graph;
          Alcotest.test_case "graft names an unregistered slot once" `Quick
            test_graft_unregistered_slot;
        ] );
      ( "image",
        [
          Alcotest.test_case "write/read round-trip" `Quick test_image_roundtrip;
          Alcotest.test_case "truncation detected" `Quick test_image_truncated;
          Alcotest.test_case "corruption detected" `Quick test_image_corrupt;
          Alcotest.test_case "version and magic checked" `Quick
            test_image_version_and_magic;
          Alcotest.test_case "v1 image rejected" `Quick test_image_v1_rejected;
          Alcotest.test_case "crash mid-write leaves prior image valid" `Quick
            test_store_crash_mid_write;
        ] );
      ( "warm",
        [
          Alcotest.test_case "build, restore, corrupt fallback" `Slow
            test_warm_build_then_restore;
        ] );
      ( "soak",
        [
          Alcotest.test_case "survives a kill after every checkpoint" `Slow
            test_soak_survives_kills;
          Alcotest.test_case "refuses a foreign scenario's timeline" `Slow
            test_soak_wrong_scenario;
          Alcotest.test_case "falls back past a corrupt newest image" `Slow
            test_soak_falls_back_past_corrupt_image;
        ] );
      ( "bisect",
        [
          Alcotest.test_case "finds a planted divergence" `Slow
            test_bisect_finds_planted_divergence;
          Alcotest.test_case "agreement is not divergence" `Slow
            test_bisect_agreement_is_not_divergence;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "prng stream state round-trips" `Quick
            test_prng_state_roundtrip;
          Alcotest.test_case "trace dropped-counter mirror" `Quick
            test_trace_dropped_mirror;
        ] );
    ]
