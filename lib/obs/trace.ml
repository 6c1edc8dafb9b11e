type entry = { at_ns : int64; event : Event.t }

(* The ring stores only the events [keep] accepts, each beside its emission
   index; every enabled emission is counted, kept or not. [iter] serves the
   stored entries whose index lies in the last [capacity] emissions, so a
   filtered sink yields exactly the kept-kind subsequence of what an
   unfiltered ring of the same capacity would hold. A stored entry that a
   newer one overwrites is always outside that window already: [capacity]
   stored emissions span at least [capacity] indices. *)
type t = {
  capacity : int;
  keep : Event.t -> bool;
  buffer : entry array;
  seqs : int array;  (* emission index of each slot's entry *)
  mutable next : int;
  mutable stored : int;
  mutable emitted : int;  (* enabled emissions since creation or [clear] *)
  mutable enabled : bool;
  m_dropped : Registry.Counter.t option;
}

let keep_all (_ : Event.t) = true
let vacant = { at_ns = 0L; event = Event.Span_begin { name = "" } }

let create ?(capacity = 65536) ?(keep = keep_all) ?metrics () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  {
    capacity;
    keep;
    buffer = Array.make capacity vacant;
    seqs = Array.make capacity 0;
    next = 0;
    stored = 0;
    emitted = 0;
    enabled = false;
    m_dropped = Option.map (fun r -> Registry.counter r "trace.dropped") metrics;
  }

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let enabled t = t.enabled
let active = function Some t -> t.enabled | None -> false

let emit t ~at_ns event =
  if t.enabled then begin
    if t.emitted >= t.capacity then begin
      (* The window loses its oldest emission; count the loss so a
         truncated trace is never mistaken for a complete one. *)
      match t.m_dropped with
      | Some c -> Registry.Counter.incr c
      | None -> ()
    end;
    if t.keep event then begin
      t.buffer.(t.next) <- { at_ns; event };
      t.seqs.(t.next) <- t.emitted;
      t.next <- (if t.next + 1 = t.capacity then 0 else t.next + 1);
      if t.stored < t.capacity then t.stored <- t.stored + 1
    end;
    t.emitted <- t.emitted + 1
  end

let iter t f =
  let first = t.emitted - t.capacity in
  let start = t.next - t.stored + if t.next < t.stored then t.capacity else 0 in
  for i = 0 to t.stored - 1 do
    let slot = (start + i) mod t.capacity in
    if t.seqs.(slot) >= first then f t.buffer.(slot)
  done

let fold f acc t =
  let r = ref acc in
  iter t (fun e -> r := f !r e);
  !r

let entries t = List.rev (fold (fun acc e -> e :: acc) [] t)

let clear t =
  Array.fill t.buffer 0 t.capacity vacant;
  t.next <- 0;
  t.stored <- 0;
  t.emitted <- 0;
  (* Keep the registry mirror in lockstep with the ring counter: a cleared
     ring that leaves the mirror standing makes post-restore lineage
     reconstruction report drops that never reached the surviving ring. *)
  match t.m_dropped with
  | Some c -> Registry.Counter.reset c
  | None -> ()

let length t = fold (fun n _ -> n + 1) 0 t
let capacity t = t.capacity
let dropped t = max 0 (t.emitted - t.capacity)

let span t ~now ~name f =
  if not t.enabled then f ()
  else begin
    let start = now () in
    emit t ~at_ns:start (Event.Span_begin { name });
    let finish result =
      let stop = now () in
      emit t ~at_ns:stop
        (Event.Span_end { name; elapsed_ns = Int64.sub stop start });
      result
    in
    match f () with
    | v -> finish v
    | exception e ->
        ignore (finish ());
        raise e
  end

let pp_entry fmt e =
  Format.fprintf fmt "[%a] %-10s %a" Event.pp_ns e.at_ns
    (Event.label e.event) Event.pp e.event
