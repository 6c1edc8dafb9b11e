(* Tests for the guest VM model: the fixed-point virtual clock (Eqn. 1), the
   deterministic guest runtime (action processing, packet numbering, timers,
   PIT ticks, idle spinning). *)

module Time = Sw_sim.Time
module Vt = Sw_vm.Virtual_time
module App = Sw_vm.App
module Guest = Sw_vm.Guest

(* --- Virtual time ----------------------------------------------------------- *)

let test_vt_linear () =
  let vt = Vt.create ~start:(Time.ms 5) ~slope_ns_per_branch:1.0 () in
  Alcotest.(check int) "at 0" (Time.ms 5) (Vt.virt_at vt 0);
  Alcotest.(check int) "at 1e6" (Time.ms 6) (Vt.virt_at vt 1_000_000)

let test_vt_fractional_slope () =
  let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:0.5 () in
  Alcotest.(check int) "half speed" (Time.ms 1) (Vt.virt_at vt 2_000_000)

let test_vt_set_slope_continuous () =
  let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:2.0 () in
  let before = Vt.virt_at vt 1000 in
  Vt.set_slope vt ~at_instr:1000 ~slope_ns_per_branch:1.0;
  Alcotest.(check int) "continuous at switch" before (Vt.virt_at vt 1000);
  Alcotest.(check int) "new slope applies"
    (Time.add before (Time.ns 500))
    (Vt.virt_at vt 1500)

let test_vt_rejects_past () =
  let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:1.0 () in
  Vt.set_slope vt ~at_instr:100 ~slope_ns_per_branch:1.0;
  Alcotest.check_raises "before segment" (Invalid_argument "x") (fun () ->
      try ignore (Vt.virt_at vt 50) with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let test_vt_clamp () =
  Alcotest.(check (float 0.)) "below" 0.9 (Vt.clamped_slope ~l:0.9 ~u:1.1 0.2);
  Alcotest.(check (float 0.)) "above" 1.1 (Vt.clamped_slope ~l:0.9 ~u:1.1 7.);
  Alcotest.(check (float 0.)) "inside" 1.05 (Vt.clamped_slope ~l:0.9 ~u:1.1 1.05)

let prop_vt_monotone =
  QCheck.Test.make ~name:"virtual time is monotone in instr" ~count:200
    QCheck.(pair (float_range 0.01 10.) (list (int_bound 1_000_000)))
    (fun (slope, increments) ->
      let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:slope () in
      let instr = ref 0 in
      List.for_all
        (fun inc ->
          let before = Vt.virt_at vt !instr in
          instr := !instr + inc;
          Time.(Vt.virt_at vt !instr >= before))
        increments)

let prop_vt_instr_for_virt_inverse =
  QCheck.Test.make ~name:"instr_for_virt is the least branch count reaching v"
    ~count:200
    QCheck.(pair (float_range 0.1 4.) (int_range 1 10_000_000))
    (fun (slope, v_ns) ->
      let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:slope () in
      let v = Time.ns v_ns in
      let i = Vt.instr_for_virt vt v in
      Time.(Vt.virt_at vt i >= v)
      && (i = 0 || Time.(Vt.virt_at vt (i - 1) < v)))

(* The int clock against the int64 arithmetic it replaced, evaluated where
   that arithmetic cannot overflow: [(d * slope_fp) lsr 20] while the
   product fits 63 bits, and the ceiling division while [dv lsl 20] does.
   Small slopes carry the deltas well past 2^42 branches. *)
let fp_of slope = Int64.of_float (Float.round (slope *. 1048576.))

let ref_virt ~base_virt ~base_instr ~s instr =
  Int64.(
    add base_virt
      (shift_right_logical (mul (sub instr base_instr) s) 20))

let ref_instr ~base_virt ~base_instr ~s v =
  if Int64.compare v base_virt <= 0 then base_instr
  else
    let num = Int64.shift_left (Int64.sub v base_virt) 20 in
    Int64.(add base_instr (div (add num (sub s 1L)) s))

let prop_vt_matches_int64_reference =
  QCheck.Test.make ~name:"virt_at and instr_for_virt equal the int64 reference"
    ~count:1000
    QCheck.(
      quad
        (pair (float_range 0.01 10.) (float_range 0.01 10.))
        (int_bound (1 lsl 30))
        (pair (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 30) - 1)))
        (pair (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 30) - 1))))
    (fun ((slope0, slope1), start, (at_hi, at_lo), (d_hi, d_lo)) ->
      let start = Time.ns (start lsl 10) in
      let at = (at_hi lsl 10) lor (at_lo land 0x3FF) in
      let vt = Vt.create ~start ~slope_ns_per_branch:slope0 () in
      Vt.set_slope vt ~at_instr:at ~slope_ns_per_branch:slope1;
      let s0 = fp_of slope0 and s1 = fp_of slope1 in
      let base_virt =
        ref_virt ~base_virt:(Int64.of_int start) ~base_instr:0L ~s:s0
          (Int64.of_int at)
      in
      let base_instr = Int64.of_int at in
      (* Up to 2^46 branches past the segment start, capped where the
         reference's int64 product would overflow; products past 2^62 are
         kept, since an unsplit 63-bit product would overflow there. *)
      let cap = Int64.to_int (Int64.div Int64.max_int s1) in
      let d = ((d_hi lsl 16) lor (d_lo land 0xFFFF)) mod cap in
      let instr = at + d in
      let virt_ok =
        Int64.of_int (Vt.virt_at vt instr)
        = ref_virt ~base_virt ~base_instr ~s:s1 (Int64.of_int instr)
      in
      (* Virtual-time deltas below 2^42 ns keep [dv lsl 20] in range. *)
      let dv = ((d_lo lsl 12) lor (d_hi land 0xFFF)) land ((1 lsl 42) - 1) in
      let v = Time.add (Int64.to_int base_virt) (Time.ns dv) in
      let instr_ok =
        Int64.of_int (Vt.instr_for_virt vt v)
        = ref_instr ~base_virt ~base_instr ~s:s1 (Int64.of_int v)
      in
      virt_ok && instr_ok)

let test_vt_large_deltas () =
  (* Fixed points past 2^42 branches, where the split product matters. *)
  List.iter
    (fun (slope, d) ->
      let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:slope () in
      let s = fp_of slope in
      Alcotest.(check int64)
        (Printf.sprintf "virt_at %g %d" slope d)
        (ref_virt ~base_virt:0L ~base_instr:0L ~s (Int64.of_int d))
        (Int64.of_int (Vt.virt_at vt d)))
    [
      (1.0, (1 lsl 42) + 12_345);
      (0.5, (1 lsl 43) + 1);
      (0.25, (1 lsl 44) - 1);
      (0.1, (1 lsl 45) + 999_999);
      (1.7, (1 lsl 42) + (1 lsl 20) - 1);
    ]

(* --- Guest runtime ------------------------------------------------------------ *)

type recorded =
  | Sent of { seq : int; instr : int; size : int }
  | Disk of { kind : [ `Read | `Write ]; bytes : int; tag : int; instr : int }
  | Dma of { bytes : int; tag : int; instr : int }

let make_guest ?pit_period app_handle =
  let events = ref [] in
  let sinks =
    {
      Guest.send =
        (fun ~seq ~instr ~dst:_ ~size ~payload:_ ->
          events := Sent { seq; instr; size } :: !events);
      disk =
        (fun ~kind ~bytes ~sequential:_ ~tag ~instr ->
          events := Disk { kind; bytes; tag; instr } :: !events);
      dma =
        (fun ~bytes ~tag ~instr ->
          events := Dma { bytes; tag; instr } :: !events);
    }
  in
  let vt = Vt.create ~start:Time.zero ~slope_ns_per_branch:1.0 () in
  let guest = Guest.create ~app:{ App.handle = app_handle } ~vt ?pit_period ~sinks () in
  (guest, events)

type Sw_net.Packet.payload += Dummy

let test_guest_idle_spins () =
  let guest, _ = make_guest (fun ~virt_now:_ _ -> []) in
  Guest.boot guest;
  Guest.run_branches guest 1000;
  Alcotest.(check int) "instr advances while idle" 1000 (Guest.instr guest);
  Alcotest.(check int) "virt follows" (Time.ns 1000) (Guest.virt_now guest)

let test_guest_compute_then_send () =
  let guest, events =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot ->
            [
              App.Compute 500;
              App.Send { dst = Sw_net.Address.Host 0; size = 64; payload = Dummy };
              App.Compute 200;
              App.Send { dst = Sw_net.Address.Host 0; size = 65; payload = Dummy };
            ]
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 1000;
  match List.rev !events with
  | [ Sent { seq = 0; instr = 500; size = 64 }; Sent { seq = 1; instr = 700; size = 65 } ]
    ->
      Alcotest.(check int) "sent count" 2 (Guest.sent_packets guest)
  | _ -> Alcotest.fail "sends must fire at exact branch offsets with ordered seqs"

let test_guest_compute_spans_slices () =
  let guest, events =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot ->
            [
              App.Compute 1500;
              App.Send { dst = Sw_net.Address.Host 0; size = 64; payload = Dummy };
            ]
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 1000;
  Alcotest.(check int) "not yet" 0 (List.length !events);
  Guest.run_branches guest 1000;
  match !events with
  | [ Sent { instr = 1500; _ } ] -> ()
  | _ -> Alcotest.fail "send fires mid second slice at branch 1500"

let test_guest_disk_sink () =
  let guest, events =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot -> [ App.Disk_read { bytes = 4096; sequential = true; tag = 9 } ]
        | App.Disk_done { tag } ->
            [ App.Disk_write { bytes = 512; sequential = false; tag = tag + 1 } ]
        | _ -> [])
  in
  Guest.boot guest;
  (match !events with
  | [ Disk { kind = `Read; bytes = 4096; tag = 9; instr = 0 } ] -> ()
  | _ -> Alcotest.fail "read issued at boot");
  Guest.inject guest (App.Disk_done { tag = 9 });
  match !events with
  | Disk { kind = `Write; bytes = 512; tag = 10; _ } :: _ -> ()
  | _ -> Alcotest.fail "write issued on completion"

let test_guest_dma_sink () =
  let guest, events =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot -> [ App.Compute 100; App.Dma_transfer { bytes = 4096; tag = 3 } ]
        | App.Dma_done { tag } -> [ App.Dma_transfer { bytes = 64; tag = tag + 1 } ]
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 1000;
  (match List.rev !events with
  | [ Dma { bytes = 4096; tag = 3; instr = 100 } ] -> ()
  | _ -> Alcotest.fail "dma issued after compute");
  Guest.inject guest (App.Dma_done { tag = 3 });
  match !events with
  | Dma { bytes = 64; tag = 4; _ } :: _ -> ()
  | _ -> Alcotest.fail "next dma issued on completion"

let test_guest_timers_fire_in_order () =
  let fired = ref [] in
  let guest, _ =
    make_guest (fun ~virt_now:_ ev ->
        match ev with
        | App.Boot ->
            [
              App.Set_timer { after = Time.us 30; tag = 2 };
              App.Set_timer { after = Time.us 10; tag = 1 };
            ]
        | App.Timer { tag } ->
            fired := tag :: !fired;
            []
        | _ -> [])
  in
  Guest.boot guest;
  (match Guest.next_timer_virt guest with
  | Some d -> Alcotest.(check int) "earliest deadline" (Time.us 10) d
  | None -> Alcotest.fail "timer expected");
  Guest.run_branches guest 100_000;
  Guest.deliver_due_timers guest;
  Alcotest.(check (list int)) "deadline order" [ 1; 2 ] (List.rev !fired)

let test_guest_pit_ticks () =
  let ticks = ref 0 in
  let guest, _ =
    make_guest ~pit_period:(Time.us 100) (fun ~virt_now:_ ev ->
        match ev with
        | App.Tick ->
            incr ticks;
            []
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 1_000_000;
  (* 1 ms of virtual time with a 100 us PIT = 10 ticks. *)
  Guest.deliver_due_timers guest;
  Alcotest.(check int) "tick count" 10 !ticks

let test_guest_timer_at_injection_virt () =
  (* The virtual time an app observes at a timer event is the delivery exit's
     virtual time, not the deadline. *)
  let observed = ref Time.zero in
  let guest, _ =
    make_guest (fun ~virt_now ev ->
        match ev with
        | App.Boot -> [ App.Set_timer { after = Time.us 10; tag = 1 } ]
        | App.Timer _ ->
            observed := virt_now;
            []
        | _ -> [])
  in
  Guest.boot guest;
  Guest.run_branches guest 50_000;
  Guest.deliver_due_timers guest;
  Alcotest.(check int) "observed at exit" (Time.us 50) !observed

let prop_guest_deterministic_replicas =
  QCheck.Test.make
    ~name:"two replicas fed identical events emit identical sends" ~count:50
    QCheck.(list (int_range 1 50_000))
    (fun slices ->
      let app () ~virt_now:_ ev =
        match ev with
        | App.Boot ->
            [
              App.Compute 1000;
              App.Send { dst = Sw_net.Address.Host 0; size = 10; payload = Dummy };
              App.Compute 5000;
              App.Send { dst = Sw_net.Address.Host 0; size = 11; payload = Dummy };
            ]
        | _ -> []
      in
      let run () =
        let guest, events = make_guest (app ()) in
        Guest.boot guest;
        List.iter (fun s -> Guest.run_branches guest s) slices;
        (Guest.instr guest, !events)
      in
      run () = run ())

(* --- Clocks (Sec. IV-B) -------------------------------------------------------- *)

let test_clocks_rdtsc () =
  let clocks = Sw_vm.Clocks.create ~tsc_hz:3.0e9 () in
  Alcotest.(check int64) "zero" 0L (Sw_vm.Clocks.rdtsc clocks ~virt:Time.zero);
  Alcotest.(check int64) "1 ms = 3M ticks" 3_000_000L
    (Sw_vm.Clocks.rdtsc clocks ~virt:(Time.ms 1));
  Alcotest.(check int64) "1 s = 3G ticks" 3_000_000_000L
    (Sw_vm.Clocks.rdtsc clocks ~virt:(Time.s 1))

let test_clocks_rtc () =
  let clocks = Sw_vm.Clocks.create () in
  Alcotest.(check int) "sub-second" 0
    (Sw_vm.Clocks.rtc_seconds clocks ~virt:(Time.ms 999));
  Alcotest.(check int) "2.5 s" 2 (Sw_vm.Clocks.rtc_seconds clocks ~virt:(Time.of_float_s 2.5))

let test_clocks_pit_counter () =
  let clocks = Sw_vm.Clocks.create ~pit_hz:1_000_000. ~pit_reload:1000 () in
  (* 1 MHz input, reload 1000: the counter decrements once per us and wraps
     every ms. *)
  Alcotest.(check int) "full" 1000 (Sw_vm.Clocks.pit_counter clocks ~virt:Time.zero);
  Alcotest.(check int) "quarter" 750
    (Sw_vm.Clocks.pit_counter clocks ~virt:(Time.us 250));
  Alcotest.(check int) "wrapped" 1000
    (Sw_vm.Clocks.pit_counter clocks ~virt:(Time.ms 1));
  Alcotest.(check int) "interrupt period" (Time.ms 1)
    (Sw_vm.Clocks.pit_interrupt_period clocks)

let prop_clocks_deterministic =
  QCheck.Test.make ~name:"clock readings are a function of virtual time alone"
    ~count:200
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let virt = Time.ns v in
      let c1 = Sw_vm.Clocks.create () and c2 = Sw_vm.Clocks.create () in
      Sw_vm.Clocks.rdtsc c1 ~virt = Sw_vm.Clocks.rdtsc c2 ~virt
      && Sw_vm.Clocks.pit_counter c1 ~virt = Sw_vm.Clocks.pit_counter c2 ~virt
      && Sw_vm.Clocks.rtc_seconds c1 ~virt = Sw_vm.Clocks.rtc_seconds c2 ~virt)

let prop_pit_counter_range =
  QCheck.Test.make ~name:"PIT counter stays within (0, reload]" ~count:200
    QCheck.(pair (int_range 1 100_000) (int_bound 1_000_000_000))
    (fun (reload, v) ->
      let clocks = Sw_vm.Clocks.create ~pit_reload:reload () in
      let c = Sw_vm.Clocks.pit_counter clocks ~virt:(Time.ns v) in
      c > 0 && c <= reload)

let () =
  Alcotest.run "sw_vm"
    [
      ( "virtual-time",
        [
          Alcotest.test_case "linear" `Quick test_vt_linear;
          Alcotest.test_case "fractional slope" `Quick test_vt_fractional_slope;
          Alcotest.test_case "slope change is continuous" `Quick
            test_vt_set_slope_continuous;
          Alcotest.test_case "rejects pre-segment reads" `Quick test_vt_rejects_past;
          Alcotest.test_case "clamp" `Quick test_vt_clamp;
          QCheck_alcotest.to_alcotest prop_vt_monotone;
          QCheck_alcotest.to_alcotest prop_vt_instr_for_virt_inverse;
          QCheck_alcotest.to_alcotest prop_vt_matches_int64_reference;
          Alcotest.test_case "deltas past 2^42 branches" `Quick
            test_vt_large_deltas;
        ] );
      ( "guest",
        [
          Alcotest.test_case "idle spins" `Quick test_guest_idle_spins;
          Alcotest.test_case "compute then send" `Quick test_guest_compute_then_send;
          Alcotest.test_case "compute spans slices" `Quick
            test_guest_compute_spans_slices;
          Alcotest.test_case "disk sink" `Quick test_guest_disk_sink;
          Alcotest.test_case "dma sink" `Quick test_guest_dma_sink;
          Alcotest.test_case "timers in deadline order" `Quick
            test_guest_timers_fire_in_order;
          Alcotest.test_case "pit ticks" `Quick test_guest_pit_ticks;
          Alcotest.test_case "timer observes exit virt" `Quick
            test_guest_timer_at_injection_virt;
          QCheck_alcotest.to_alcotest prop_guest_deterministic_replicas;
        ] );
      ( "clocks",
        [
          Alcotest.test_case "rdtsc" `Quick test_clocks_rdtsc;
          Alcotest.test_case "rtc" `Quick test_clocks_rtc;
          Alcotest.test_case "pit counter" `Quick test_clocks_pit_counter;
          QCheck_alcotest.to_alcotest prop_clocks_deterministic;
          QCheck_alcotest.to_alcotest prop_pit_counter_range;
        ] );
    ]
