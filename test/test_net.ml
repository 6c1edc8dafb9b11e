(* Tests for the network substrate: link timing, routing, counters, the
   reliable multicast, and the ingress/egress nodes' replication and
   median-release semantics. *)

module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Net = Sw_net.Network
module Packet = Sw_net.Packet
module Address = Sw_net.Address

type Packet.payload += Tag of int

let quiet_link =
  { Net.latency = Time.ms 1; jitter = Time.zero; bandwidth_bps = 0; loss = 0. }

let setup ?(default = quiet_link) () =
  let engine = Engine.create () in
  let net = Net.create engine ~default in
  (engine, net)

let send net ~src ~dst ?(size = 100) payload =
  Net.send net (Packet.make ~src ~dst ~size ~seq:(Net.fresh_seq net) payload)

(* --- Link timing ----------------------------------------------------------- *)

let test_latency () =
  let engine, net = setup () in
  let arrival = ref Time.zero in
  Net.register net (Address.Host 1) (fun _ -> arrival := Engine.now engine);
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Tag 1);
  Engine.run engine;
  Alcotest.(check int) "latency applied" (Time.ms 1) !arrival

let test_serialisation () =
  let engine, net = setup () in
  let default =
    { Net.latency = Time.zero; jitter = Time.zero; bandwidth_bps = 8_000_000; loss = 0. }
  in
  let net2 = Net.create engine ~default in
  let arrivals = ref [] in
  Net.register net2 (Address.Host 1) (fun _ ->
      arrivals := Engine.now engine :: !arrivals);
  (* 1000-byte packets at 8 Mb/s serialize in 1 ms each, FIFO. *)
  send net2 ~src:(Address.Host 0) ~dst:(Address.Host 1) ~size:1000 (Tag 1);
  send net2 ~src:(Address.Host 0) ~dst:(Address.Host 1) ~size:1000 (Tag 2);
  Engine.run engine;
  ignore net;
  Alcotest.(check (list int)) "back-to-back serialisation"
    [ Time.ms 1; Time.ms 2 ]
    (List.rev !arrivals)

let test_fifo_no_reorder () =
  let engine = Engine.create () in
  let default =
    { Net.latency = Time.ms 1; jitter = Time.us 900; bandwidth_bps = 0; loss = 0. }
  in
  let net = Net.create engine ~default in
  let order = ref [] in
  Net.register net (Address.Host 1) (fun pkt ->
      match pkt.Packet.payload with Tag n -> order := n :: !order | _ -> ());
  for i = 1 to 50 do
    send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Tag i)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "jitter never reorders a link"
    (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_loss () =
  let engine = Engine.create () in
  let default = { quiet_link with Net.loss = 1.0 } in
  let net = Net.create engine ~default in
  let got = ref 0 in
  Net.register net (Address.Host 1) (fun _ -> incr got);
  send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Tag 1);
  Engine.run engine;
  Alcotest.(check int) "all lost" 0 !got;
  Alcotest.(check int) "loss counted" 1 (Net.lost net)

(* --- Routing / counters ------------------------------------------------------ *)

let test_route_rewrite () =
  let engine, net = setup () in
  let at_ingress = ref 0 and at_vm = ref 0 in
  Net.register net Address.Ingress (fun _ -> incr at_ingress);
  Net.register net (Address.Vm 3) (fun _ -> incr at_vm);
  Net.set_route net ~dst:(Address.Vm 3) ~via:Address.Ingress;
  send net ~src:(Address.Host 0) ~dst:(Address.Vm 3) (Tag 1);
  Engine.run engine;
  Alcotest.(check int) "delivered via ingress" 1 !at_ingress;
  Alcotest.(check int) "vm handler bypassed" 0 !at_vm;
  Net.clear_route net ~dst:(Address.Vm 3);
  send net ~src:(Address.Host 0) ~dst:(Address.Vm 3) (Tag 2);
  Engine.run engine;
  Alcotest.(check int) "after clear, direct" 1 !at_vm

let test_undeliverable () =
  let engine, net = setup () in
  send net ~src:(Address.Host 0) ~dst:(Address.Host 9) (Tag 1);
  Engine.run engine;
  Alcotest.(check int) "undeliverable counted" 1 (Net.undeliverable net)

let test_counters () =
  let engine, net = setup () in
  Net.register net (Address.Host 1) (fun _ -> ());
  for _ = 1 to 3 do
    send net ~src:(Address.Host 0) ~dst:(Address.Host 1) (Tag 0)
  done;
  Engine.run engine;
  Alcotest.(check int) "pair count" 3
    (Net.count net ~src:(Address.Host 0) ~dst:(Address.Host 1));
  Alcotest.(check int) "delivered" 3 (Net.delivered net);
  Net.reset_counters net;
  Alcotest.(check int) "reset" 0
    (Net.count net ~src:(Address.Host 0) ~dst:(Address.Host 1))

let test_broadcast () =
  let engine, net = setup () in
  let got = ref [] in
  List.iter
    (fun i -> Net.register net (Address.Host i) (fun _ -> got := i :: !got))
    [ 0; 1; 2 ];
  send net ~src:(Address.Host 0) ~dst:Address.Broadcast_addr (Tag 1);
  Engine.run engine;
  Alcotest.(check (list int)) "everyone but sender" [ 1; 2 ]
    (List.sort compare !got)

let test_node_link_override () =
  let engine, net = setup () in
  Net.set_node_link net (Address.Host 1)
    { quiet_link with Net.latency = Time.ms 10 };
  let arrival = ref Time.zero in
  Net.register net (Address.Host 1) (fun _ -> arrival := Engine.now engine);
  send net ~src:(Address.Vm 5) ~dst:(Address.Host 1) (Tag 1);
  Engine.run engine;
  Alcotest.(check int) "node override used" (Time.ms 10) !arrival

(* --- Multicast ---------------------------------------------------------------- *)

let mcast_setup ?seed ?(loss = 0.) ?nak_delay ?nak_retries ?heartbeat () =
  let engine = Engine.create ?seed () in
  let default = { quiet_link with Net.loss } in
  let net = Net.create engine ~default in
  let members = [ Address.Vmm 0; Address.Vmm 1; Address.Vmm 2 ] in
  let g =
    Sw_net.Multicast.group net ~members ?nak_delay ?nak_retries ?heartbeat ()
  in
  let received = Hashtbl.create 8 in
  let endpoints =
    List.map
      (fun self ->
        let ep =
          Sw_net.Multicast.endpoint g ~self
            ~deliver:(fun pkt ->
              let existing =
                match Hashtbl.find_opt received self with Some l -> l | None -> []
              in
              Hashtbl.replace received self (pkt.Packet.payload :: existing))
            ()
        in
        Net.register net self (fun pkt -> Sw_net.Multicast.handle ep pkt);
        (self, ep))
      members
  in
  (engine, endpoints, received)

let test_mcast_basic () =
  let engine, endpoints, received = mcast_setup () in
  let _, ep0 = List.hd endpoints in
  Sw_net.Multicast.publish ep0 ~size:100 (Tag 1);
  Sw_net.Multicast.publish ep0 ~size:100 (Tag 2);
  Engine.run engine;
  List.iter
    (fun self ->
      let payloads = List.rev (Hashtbl.find received self) in
      Alcotest.(check int)
        (Address.to_string self ^ " got both")
        2 (List.length payloads);
      match payloads with
      | [ Tag 1; Tag 2 ] -> ()
      | _ -> Alcotest.fail "in-order delivery expected")
    [ Address.Vmm 1; Address.Vmm 2 ];
  Alcotest.(check bool) "sender does not self-deliver" true
    (not (Hashtbl.mem received (Address.Vmm 0)))

let test_mcast_loss_recovery () =
  (* With a lossy fabric and heartbeats, everything still arrives in order. *)
  let engine, endpoints, received = mcast_setup ~loss:0.3 ~heartbeat:(Time.ms 5) () in
  let _, ep0 = List.hd endpoints in
  for i = 1 to 20 do
    Sw_net.Multicast.publish ep0 ~size:100 (Tag i)
  done;
  Engine.run ~until:(Time.s 2) engine;
  List.iter
    (fun self ->
      let payloads = List.rev (Hashtbl.find received self) in
      let tags = List.filter_map (function Tag n -> Some n | _ -> None) payloads in
      Alcotest.(check (list int))
        (Address.to_string self ^ " complete in-order stream")
        (List.init 20 (fun i -> i + 1))
        tags)
    [ Address.Vmm 1; Address.Vmm 2 ]

let test_mcast_history_bounded () =
  (* Lossless traffic: receivers keep up, so the sender's history holds only
     what is still in flight (one 1 ms link at 100 us spacing), not all
     10,000 packets. *)
  let engine, endpoints, received = mcast_setup () in
  let _, ep0 = List.hd endpoints in
  let n = 10_000 in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule_at engine (Time.us (100 * i)) (fun () ->
           Sw_net.Multicast.publish ep0 ~size:100 (Tag i)))
  done;
  Engine.run engine;
  List.iter
    (fun self ->
      Alcotest.(check int)
        (Address.to_string self ^ " got every packet")
        n
        (List.length (Hashtbl.find received self)))
    [ Address.Vmm 1; Address.Vmm 2 ];
  let kept = Sw_net.Multicast.history_length ep0 in
  if kept > 16 then Alcotest.failf "history holds %d entries after %d publishes" kept n;
  Alcotest.(check int) "no retransmissions" 0 (Sw_net.Multicast.retransmissions ep0)

(* Every member publishes [per_sender] tags (sender [s]'s k-th is
   [Tag (1000 * s + k)]) at staggered 500 us intervals while [windows]
   [(member, start_ms, length_ms)] cut members off the group. Runs in 10 ms
   steps until every stream is complete or [deadline] passes, then 50 ms
   more so NAKs still in flight are handled. Returns the endpoints and, per
   (receiver, sender) stream, the tags delivered in order. *)
let mcast_scenario ~seed ~loss ~nak_retries ~per_sender ~windows ~deadline =
  let engine, endpoints, received =
    mcast_setup ~seed ~loss ~nak_delay:(Time.us 20) ~nak_retries
      ~heartbeat:(Time.ms 5) ()
  in
  let eps = Array.of_list (List.map snd endpoints) in
  Array.iteri
    (fun s ep ->
      for k = 0 to per_sender - 1 do
        ignore
          (Engine.schedule_at engine (Time.us ((500 * k) + (100 * s))) (fun () ->
               Sw_net.Multicast.publish ep ~size:100 (Tag ((1000 * s) + k))))
      done)
    eps;
  let cuts = Array.make (Array.length eps) 0 in
  List.iter
    (fun (m, start_ms, len_ms) ->
      ignore
        (Engine.schedule_at engine (Time.ms start_ms) (fun () ->
             cuts.(m) <- cuts.(m) + 1;
             Sw_net.Multicast.set_partitioned eps.(m) true));
      ignore
        (Engine.schedule_at engine (Time.ms (start_ms + len_ms)) (fun () ->
             cuts.(m) <- cuts.(m) - 1;
             if cuts.(m) = 0 then Sw_net.Multicast.set_partitioned eps.(m) false)))
    windows;
  let stream r s =
    let all = match Hashtbl.find_opt received (Address.Vmm r) with Some l -> l | None -> [] in
    List.rev
      (List.filter_map
         (function Tag t when t / 1000 = s -> Some (t mod 1000) | _ -> None)
         all)
  in
  let complete () =
    List.for_all
      (fun r ->
        List.for_all
          (fun s -> s = r || List.length (stream r s) = per_sender)
          [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  let step = Time.ms 10 in
  while (not (complete ())) && Engine.now engine < deadline do
    Engine.run ~until:(Time.add (Engine.now engine) step) engine
  done;
  Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 50)) engine;
  (eps, stream)

let prop_mcast_streams_complete =
  QCheck.Test.make ~count:30
    ~name:"lossy, partitioned streams arrive complete and in order"
    QCheck.(
      quad (float_range 0. 0.5) (int_range 1 60)
        (list_of_size Gen.(0 -- 3) (triple (int_bound 2) (int_bound 30) (int_range 1 20)))
        (int_bound 1_000_000))
    (fun (loss, per_sender, windows, seed) ->
      (* Enough retries that no gap is ever abandoned (at 50% loss a
         round trip fails with probability 0.75, and a partition burns at
         most a dozen attempts), so a short stream means lost data. A NAK
         behind a trailing edge raises out of [run] and fails the case. *)
      let _, stream =
        mcast_scenario ~seed:(Int64.of_int seed) ~loss ~nak_retries:80
          ~per_sender ~windows ~deadline:(Time.s 600)
      in
      let expect = List.init per_sender Fun.id in
      List.for_all
        (fun r -> List.for_all (fun s -> s = r || stream r s = expect) [ 0; 1; 2 ])
        [ 0; 1; 2 ])

let test_mcast_lossy_counters () =
  (* One seeded lossy run with two partition windows and the default retry
     budget, so gaps are abandoned too. Trimming the history must not
     change any counter: these are the values of an untrimmed history. *)
  let eps, _ =
    mcast_scenario ~seed:14L ~loss:0.3 ~nak_retries:5 ~per_sender:200
      ~windows:[ (1, 20, 15); (2, 60, 40) ] ~deadline:(Time.s 2)
  in
  let got =
    Array.to_list
      (Array.map
         (fun ep ->
           ( Sw_net.Multicast.retransmissions ep,
             Sw_net.Multicast.naks_sent ep,
             Sw_net.Multicast.gaps_abandoned ep ))
         eps)
  in
  Alcotest.(check (list (triple int int int)))
    "(retransmissions, naks_sent, gaps_abandoned) per member"
    [ (825, 300, 60); (727, 310, 62); (818, 250, 50) ]
    got

let test_mcast_rejects_foreign () =
  let engine, endpoints, _ = mcast_setup () in
  ignore engine;
  let _, ep0 = List.hd endpoints in
  Alcotest.check_raises "non-multicast packet" (Invalid_argument "x") (fun () ->
      try
        Sw_net.Multicast.handle ep0
          (Packet.make ~src:(Address.Vmm 1) ~dst:(Address.Vmm 0) ~size:10 ~seq:1
             (Tag 1))
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* --- Ingress / egress ------------------------------------------------------------ *)

let test_ingress_replicates () =
  let engine, net = setup () in
  let ingress = Sw_net.Ingress.create net in
  let got = Hashtbl.create 4 in
  List.iter
    (fun m ->
      Net.register net (Address.Vmm m) (fun pkt ->
          match pkt.Packet.payload with
          | Packet.Guest_bound { vm; ingress_seq; inner } ->
              Hashtbl.replace got m (vm, ingress_seq, inner.Packet.payload)
          | _ -> ()))
    [ 0; 1; 2 ];
  Sw_net.Ingress.register_vm ingress ~vm:7
    ~replica_vmms:[ Address.Vmm 0; Address.Vmm 1; Address.Vmm 2 ];
  send net ~src:(Address.Host 0) ~dst:(Address.Vm 7) (Tag 42);
  Engine.run engine;
  List.iter
    (fun m ->
      match Hashtbl.find_opt got m with
      | Some (7, 0, Tag 42) -> ()
      | _ -> Alcotest.failf "machine %d did not get the replica" m)
    [ 0; 1; 2 ];
  Alcotest.(check int) "replicated count" 1 (Sw_net.Ingress.replicated ingress)

let test_ingress_drops_unknown () =
  let engine, net = setup () in
  let ingress = Sw_net.Ingress.create net in
  Net.set_route net ~dst:(Address.Vm 9) ~via:Address.Ingress;
  send net ~src:(Address.Host 0) ~dst:(Address.Vm 9) (Tag 1);
  Engine.run engine;
  Alcotest.(check int) "dropped" 1 (Sw_net.Ingress.dropped ingress)

let egress_copy net ~vm ~replica ~seq payload =
  let inner =
    Packet.make ~src:(Address.Vm vm) ~dst:(Address.Host 1) ~size:100 ~seq payload
  in
  Net.send net
    (Packet.make ~src:(Address.Vmm replica) ~dst:Address.Egress ~size:148
       ~seq:(Net.fresh_seq net)
       (Packet.Egress_tunnel { vm; replica; inner }))

let test_egress_releases_on_second_copy () =
  let engine, net = setup () in
  let egress = Sw_net.Egress.create net in
  Sw_net.Egress.register_vm egress ~vm:7 ~replicas:3;
  let arrivals = ref [] in
  Net.register net (Address.Host 1) (fun pkt ->
      arrivals := (Engine.now engine, pkt.Packet.payload) :: !arrivals);
  (* Copies from the three replicas at 0, 5 and 9 ms: the median (2nd) copy
     at 5 ms must trigger the single forward. *)
  egress_copy net ~vm:7 ~replica:0 ~seq:0 (Tag 1);
  ignore
    (Engine.schedule_at engine (Time.ms 5) (fun () ->
         egress_copy net ~vm:7 ~replica:1 ~seq:0 (Tag 1)));
  ignore
    (Engine.schedule_at engine (Time.ms 9) (fun () ->
         egress_copy net ~vm:7 ~replica:2 ~seq:0 (Tag 1)));
  Engine.run engine;
  (match !arrivals with
  | [ (at, Tag 1) ] ->
      (* 5 ms (second copy sent) + 1 ms to egress + 1 ms to host. *)
      Alcotest.(check int) "released at median" (Time.ms 7) at
  | _ -> Alcotest.fail "exactly one forward expected");
  Alcotest.(check int) "forwarded" 1 (Sw_net.Egress.forwarded egress)

let test_egress_five_replicas () =
  let engine, net = setup () in
  let egress = Sw_net.Egress.create net in
  Sw_net.Egress.register_vm egress ~vm:7 ~replicas:5;
  let count = ref 0 in
  Net.register net (Address.Host 1) (fun _ -> incr count);
  for r = 0 to 4 do
    ignore
      (Engine.schedule_at engine (Time.ms r) (fun () ->
           egress_copy net ~vm:7 ~replica:r ~seq:0 (Tag 1)))
  done;
  Engine.run engine;
  Alcotest.(check int) "one release from five copies" 1 !count

let test_egress_output_vote () =
  let engine, net = setup () in
  let egress = Sw_net.Egress.create net in
  Sw_net.Egress.register_vm egress ~vm:7 ~replicas:3;
  Net.register net (Address.Host 1) (fun _ -> ());
  egress_copy net ~vm:7 ~replica:0 ~seq:0 (Tag 1);
  egress_copy net ~vm:7 ~replica:1 ~seq:0 (Tag 1);
  (* The third replica diverged and emitted different content. *)
  egress_copy net ~vm:7 ~replica:2 ~seq:0 (Tag 999);
  Engine.run engine;
  Alcotest.(check int) "vote failure detected" 1 (Sw_net.Egress.mismatches egress);
  Alcotest.(check int) "still released on median copy" 1
    (Sw_net.Egress.forwarded egress)

let test_egress_even_replicas_rejected () =
  let _, net = setup () in
  let egress = Sw_net.Egress.create net in
  Alcotest.check_raises "even replicas" (Invalid_argument "x") (fun () ->
      try Sw_net.Egress.register_vm egress ~vm:1 ~replicas:2 with
      | Invalid_argument _ -> raise (Invalid_argument "x"))

let () =
  Alcotest.run "sw_net"
    [
      ( "links",
        [
          Alcotest.test_case "latency" `Quick test_latency;
          Alcotest.test_case "serialisation" `Quick test_serialisation;
          Alcotest.test_case "fifo under jitter" `Quick test_fifo_no_reorder;
          Alcotest.test_case "loss" `Quick test_loss;
        ] );
      ( "routing",
        [
          Alcotest.test_case "route rewrite" `Quick test_route_rewrite;
          Alcotest.test_case "undeliverable" `Quick test_undeliverable;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "node link override" `Quick test_node_link_override;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "basic fan-out" `Quick test_mcast_basic;
          Alcotest.test_case "loss recovery" `Quick test_mcast_loss_recovery;
          Alcotest.test_case "history stays bounded" `Quick test_mcast_history_bounded;
          QCheck_alcotest.to_alcotest prop_mcast_streams_complete;
          Alcotest.test_case "lossy counters unchanged" `Quick test_mcast_lossy_counters;
          Alcotest.test_case "rejects foreign packets" `Quick test_mcast_rejects_foreign;
        ] );
      ( "ingress-egress",
        [
          Alcotest.test_case "ingress replicates" `Quick test_ingress_replicates;
          Alcotest.test_case "ingress drops unknown" `Quick test_ingress_drops_unknown;
          Alcotest.test_case "egress median release" `Quick
            test_egress_releases_on_second_copy;
          Alcotest.test_case "egress with five replicas" `Quick
            test_egress_five_replicas;
          Alcotest.test_case "egress output vote" `Quick test_egress_output_vote;
          Alcotest.test_case "egress rejects even replica count" `Quick
            test_egress_even_replicas_rejected;
        ] );
    ]
