module Time = Sw_sim.Time
module Engine = Sw_sim.Engine
module Int_table = Sw_sim.Int_table

type Packet.payload +=
  | Mcast_data of { group : int; mseq : int; inner : Packet.payload }
  | Mcast_nak of { group : int; origin : Address.t; from_mseq : int; to_mseq : int }
  | Mcast_heartbeat of { group : int; last_mseq : int }

let is_mcast (pkt : Packet.t) =
  match pkt.payload with
  | Mcast_data _ | Mcast_nak _ | Mcast_heartbeat _ -> true
  | _ -> false

let group_of_packet (pkt : Packet.t) =
  match pkt.payload with
  | Mcast_data { group; _ } | Mcast_nak { group; _ } | Mcast_heartbeat { group; _ }
    ->
      Some group
  | _ -> None

(* Per-sender receive state at one endpoint. NAK recovery is a bounded
   retry loop: one outstanding cycle per sender, exponential backoff between
   attempts, and after [nak_retries] re-sends of the same leading gap the
   gap is abandoned (skipped over) so a permanently lost packet cannot stall
   the receiver forever. *)
type rx = {
  mutable next_expected : int;
  buffered : Packet.t Int_table.t;
  mutable nak_attempt : int;  (** 0 = no cycle outstanding; else attempt #. *)
  mutable nak_at : int;  (** [next_expected] when the current gap was first NAKed. *)
  mutable nak_through : int;  (** Highest mseq known to exist from this sender. *)
  mutable naks_out : int;  (** NAKs sent to this sender that it has not handled. *)
  mutable nak_floor : int;
      (** Lowest [from_mseq] sent since [naks_out] was last 0, else [max_int]. *)
}

type group = {
  network : Network.t;
  group_id : int;
  members : Address.t list;
  nak_delay : Time.t;
  nak_retries : int;
  heartbeat : Time.t option;
  (* Every endpoint of a group lives on one engine (replica groups are
     partition atoms), so a sender may read its peers' receive state. *)
  mutable endpoints : endpoint list;
}

and endpoint = {
  g : group;
  self : Address.t;
  transmit : Packet.t -> unit;
  deliver : Packet.t -> unit;
  (* Sent history for retransmission, keyed by mseq: exactly the mseqs in
     [trail, next_mseq). *)
  history : Packet.t Int_table.t;
  mutable trail : int;
  mutable next_mseq : int;
  rx_states : rx Address.Table.t;
  mutable partitioned : bool;
  (* Metric paths key on the member's address, not the group id: group ids
     come from a cross-domain atomic counter, so using them would make
     snapshot contents depend on worker scheduling. *)
  m_retransmissions : Sw_obs.Registry.Counter.t;
  m_naks : Sw_obs.Registry.Counter.t;
  m_abandoned : Sw_obs.Registry.Counter.t;
  m_partition_drops : Sw_obs.Registry.Counter.t;
}

(* Atomic: clouds on different domains allocate groups concurrently, and a
   plain [ref] incr could hand two groups the same id. Ids only need to be
   distinct, so cross-domain allocation order doesn't affect determinism. *)
let group_counter = Atomic.make 0

let group network ~members ?(nak_delay = Time.us 200) ?(nak_retries = 5)
    ?heartbeat () =
  if List.length members < 2 then invalid_arg "Multicast.group: need >= 2 members";
  if nak_retries < 1 then invalid_arg "Multicast.group: nak_retries must be >= 1";
  { network;
    group_id = 1 + Atomic.fetch_and_add group_counter 1;
    members; nak_delay; nak_retries; heartbeat; endpoints = [] }

let group_id g = g.group_id

let peers e = List.filter (fun a -> not (Address.equal a e.self)) e.g.members

(* All outgoing traffic funnels through here so a partition window can cut
   the endpoint off in one place. *)
let xmit e pkt =
  if e.partitioned then Sw_obs.Registry.Counter.incr e.m_partition_drops
  else e.transmit pkt

let send_to e ~dst ~size payload =
  let pkt =
    Packet.make ~src:e.self ~dst ~size ~seq:(Network.fresh_seq e.g.network) payload
  in
  xmit e pkt

let start_heartbeat e period =
  let engine = Network.engine e.g.network in
  let rec tick () =
    ignore
      (Engine.schedule_after engine period (fun () ->
           if e.next_mseq > 0 then
             List.iter
               (fun dst ->
                 send_to e ~dst ~size:64
                   (Mcast_heartbeat { group = e.g.group_id; last_mseq = e.next_mseq - 1 }))
               (peers e);
           tick ()))
  in
  tick ()

let endpoint g ~self ?transmit ~deliver () =
  if not (List.exists (Address.equal self) g.members) then
    invalid_arg "Multicast.endpoint: self not a group member";
  if List.exists (fun p -> Address.equal p.self self) g.endpoints then
    invalid_arg "Multicast.endpoint: self already has an endpoint";
  let transmit =
    match transmit with Some f -> f | None -> Network.send g.network
  in
  let metrics = Engine.metrics (Network.engine g.network) in
  let addr = Address.to_string self in
  let e =
    {
      g;
      self;
      transmit;
      deliver;
      history = Int_table.create 64;
      trail = 0;
      next_mseq = 0;
      rx_states = Address.Table.create 8;
      partitioned = false;
      m_retransmissions =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "net.mcast.%s.retransmissions" addr);
      m_naks =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "net.mcast.%s.naks" addr);
      m_abandoned =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "net.mcast.%s.gaps_abandoned" addr);
      m_partition_drops =
        Sw_obs.Registry.counter metrics
          (Printf.sprintf "net.mcast.%s.partition_drops" addr);
    }
  in
  g.endpoints <- e :: g.endpoints;
  Option.iter (start_heartbeat e) g.heartbeat;
  e

let rec edge_over ~self edge = function
  | [] -> edge
  | p :: rest when Address.equal p.self self -> edge_over ~self edge rest
  | p :: rest -> (
      match Address.Table.find p.rx_states self with
      | rx ->
          edge_over ~self (Int.min edge (Int.min rx.next_expected rx.nak_floor)) rest
      | exception Not_found -> 0)

(* The trailing edge of [e]'s history: the lowest mseq a NAK could still
   ask of it. A peer's [next_expected] only moves forward and it NAKs only
   from there, so below it only a NAK already in flight can still ask, and
   [nak_floor] bounds those. A member without an endpoint, or a peer that
   has not yet heard from [e], could still ask for mseq 0. *)
let trailing_edge e =
  if List.compare_lengths e.g.endpoints e.g.members < 0 then 0
  else edge_over ~self:e.self max_int e.g.endpoints

let trim e =
  let edge = trailing_edge e in
  if edge > e.trail then begin
    for mseq = e.trail to edge - 1 do
      Int_table.remove e.history mseq
    done;
    e.trail <- edge
  end

let publish e ~size payload =
  let mseq = e.next_mseq in
  e.next_mseq <- mseq + 1;
  let wrapped = Mcast_data { group = e.g.group_id; mseq; inner = payload } in
  List.iter
    (fun dst ->
      let pkt =
        Packet.make ~src:e.self ~dst ~size ~seq:(Network.fresh_seq e.g.network)
          wrapped
      in
      Int_table.replace e.history mseq pkt;
      xmit e pkt)
    (peers e);
  trim e

let rx_state e origin =
  match Address.Table.find_opt e.rx_states origin with
  | Some rx -> rx
  | None ->
      let rx =
        { next_expected = 0; buffered = Int_table.create 8;
          nak_attempt = 0; nak_at = 0; nak_through = -1;
          naks_out = 0; nak_floor = max_int }
      in
      Address.Table.add e.rx_states origin rx;
      rx

(* Deliver any in-order buffered packets for this sender. *)
let rec flush e rx =
  match Int_table.find_opt rx.buffered rx.next_expected with
  | None -> ()
  | Some pkt ->
      Int_table.remove rx.buffered rx.next_expected;
      rx.next_expected <- rx.next_expected + 1;
      e.deliver pkt;
      flush e rx

(* Give up on the leading gap: skip [next_expected] forward to the smallest
   buffered mseq (or just past the known high-water mark if nothing is
   buffered) and flush. Late retransmissions of the skipped mseqs then land
   in the ordinary duplicate path. *)
let abandon_gap e rx =
  Sw_obs.Registry.Counter.incr e.m_abandoned;
  let smallest =
    Int_table.fold
      (fun mseq _ acc ->
        match acc with Some m when m <= mseq -> acc | _ -> Some mseq)
      rx.buffered None
  in
  (match smallest with
  | Some m -> rx.next_expected <- m
  | None -> rx.next_expected <- rx.nak_through + 1);
  flush e rx

(* One NAK cycle per sender: attempt [k] fires after nak_delay * 2^(k-1).
   Filling the gap before the timer fires parks the cycle; filling it
   partially (the leading edge advanced) resets the retry budget for the new
   leading gap. After [nak_retries] re-sends with no progress the gap is
   abandoned rather than retried forever. *)
let rec nak_cycle e origin rx =
  let engine = Network.engine e.g.network in
  let delay = Time.mul_int e.g.nak_delay (1 lsl min (rx.nak_attempt - 1) 16) in
  ignore
    (Engine.schedule_after engine delay (fun () ->
         if rx.next_expected > rx.nak_through then rx.nak_attempt <- 0
         else begin
           if rx.next_expected > rx.nak_at then begin
             rx.nak_at <- rx.next_expected;
             rx.nak_attempt <- 1
           end;
           if rx.nak_attempt > e.g.nak_retries then begin
             abandon_gap e rx;
             if rx.next_expected <= rx.nak_through then begin
               rx.nak_attempt <- 1;
               rx.nak_at <- rx.next_expected;
               nak_cycle e origin rx
             end
             else rx.nak_attempt <- 0
           end
           else begin
             Sw_obs.Registry.Counter.incr e.m_naks;
             (* Only a NAK that leaves the endpoint is in flight: a lost
                one is never handled, so it pins the sender's trailing
                edge at its [from_mseq] for good. *)
             if not e.partitioned then begin
               rx.naks_out <- rx.naks_out + 1;
               rx.nak_floor <- Int.min rx.nak_floor rx.next_expected
             end;
             send_to e ~dst:origin ~size:64
               (Mcast_nak
                  {
                    group = e.g.group_id;
                    origin;
                    from_mseq = rx.next_expected;
                    to_mseq = rx.nak_through;
                  });
             rx.nak_attempt <- rx.nak_attempt + 1;
             nak_cycle e origin rx
           end
         end))

let request_missing e origin rx ~through =
  if through > rx.nak_through then rx.nak_through <- through;
  if rx.nak_attempt = 0 && rx.next_expected <= rx.nak_through then begin
    rx.nak_attempt <- 1;
    rx.nak_at <- rx.next_expected;
    nak_cycle e origin rx
  end

(* [e] has handled a NAK from [nak_src]: it is no longer in flight. *)
let nak_handled e ~nak_src =
  match List.find_opt (fun p -> Address.equal p.self nak_src) e.g.endpoints with
  | None -> ()
  | Some p -> (
      match Address.Table.find_opt p.rx_states e.self with
      | None -> ()
      | Some rx ->
          rx.naks_out <- rx.naks_out - 1;
          if rx.naks_out = 0 then rx.nak_floor <- max_int)

let unwrap_data (pkt : Packet.t) ~mseq ~inner =
  { pkt with Packet.payload = inner; seq = mseq }

let handle e (pkt : Packet.t) =
  if e.partitioned then Sw_obs.Registry.Counter.incr e.m_partition_drops
  else
  match pkt.payload with
  | Mcast_data { group; mseq; inner } ->
      if group <> e.g.group_id then ()
      else begin
        let rx = rx_state e pkt.src in
        if mseq < rx.next_expected then () (* duplicate *)
        else begin
          Int_table.replace rx.buffered mseq (unwrap_data pkt ~mseq ~inner);
          if mseq > rx.next_expected then
            request_missing e pkt.src rx ~through:(mseq - 1);
          flush e rx
        end
      end
  | Mcast_nak { group; from_mseq; to_mseq; _ } ->
      if group <> e.g.group_id then ()
      else begin
        nak_handled e ~nak_src:pkt.src;
        if from_mseq < e.trail then
          failwith
            (Printf.sprintf
               "Multicast: %s NAKed %s for mseq %d, behind its trailing edge %d"
               (Address.to_string pkt.src) (Address.to_string e.self)
               from_mseq e.trail);
        for mseq = from_mseq to to_mseq do
          match Int_table.find_opt e.history mseq with
          | None -> ()
          | Some original ->
              Sw_obs.Registry.Counter.incr e.m_retransmissions;
              let pkt' =
                Packet.make ~src:e.self ~dst:pkt.src ~size:original.Packet.size
                  ~seq:(Network.fresh_seq e.g.network) original.Packet.payload
              in
              xmit e pkt'
        done
      end
  | Mcast_heartbeat { group; last_mseq } ->
      if group <> e.g.group_id then ()
      else begin
        let rx = rx_state e pkt.src in
        if last_mseq >= rx.next_expected then
          request_missing e pkt.src rx ~through:last_mseq
      end
  | _ -> invalid_arg "Multicast.handle: not a multicast packet"

let retransmissions e = Sw_obs.Registry.Counter.value e.m_retransmissions
let history_length e = Int_table.length e.history
let naks_sent e = Sw_obs.Registry.Counter.value e.m_naks
let gaps_abandoned e = Sw_obs.Registry.Counter.value e.m_abandoned
let partition_drops e = Sw_obs.Registry.Counter.value e.m_partition_drops
let set_partitioned e on = e.partitioned <- on
let partitioned e = e.partitioned

let () =
  List.iter Sw_sim.Graft.register
    [
      [%extension_constructor Mcast_data];
      [%extension_constructor Mcast_nak];
      [%extension_constructor Mcast_heartbeat];
    ]

let rec reserve_group_ids n =
  let cur = Atomic.get group_counter in
  if cur < n && not (Atomic.compare_and_set group_counter cur n) then
    reserve_group_ids n
