type t = Sw_obs.Trace.t

type entry = { at : Time.t; label : string; message : string }

let create = Sw_obs.Trace.create
let enable = Sw_obs.Trace.enable
let disable = Sw_obs.Trace.disable
let enabled = Sw_obs.Trace.enabled

let emit t ~at ~label message =
  Sw_obs.Trace.emit t ~at_ns:(Int64.of_int at)
    (Sw_obs.Event.Message { label; text = message })

let entry_of (e : Sw_obs.Trace.entry) =
  match e.Sw_obs.Trace.event with
  | Sw_obs.Event.Message { label; text } ->
      { at = Int64.to_int e.Sw_obs.Trace.at_ns; label; message = text }
  | ev ->
      {
        at = Int64.to_int e.Sw_obs.Trace.at_ns;
        label = Sw_obs.Event.label ev;
        message = Format.asprintf "%a" Sw_obs.Event.pp ev;
      }

let iter t f = Sw_obs.Trace.iter t (fun e -> f (entry_of e))
let fold f acc t = Sw_obs.Trace.fold (fun acc e -> f acc (entry_of e)) acc t
let entries t = List.rev (fold (fun acc e -> e :: acc) [] t)
let clear = Sw_obs.Trace.clear
let length = Sw_obs.Trace.length

let pp_entry fmt e =
  Format.fprintf fmt "[%a] %-18s %s" Time.pp e.at e.label e.message
