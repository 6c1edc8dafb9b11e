type meta = Json.t

let meta ?seed ?scenario ?trace_capacity ?trace_dropped ?registry_enabled () =
  let field name f = Option.map (fun v -> (name, f v)) in
  Json.Obj
    (List.filter_map Fun.id
       [
         field "seed" Json.of_int64 seed;
         field "scenario" (fun s -> Json.String s) scenario;
         field "trace_capacity" (fun c -> Json.Int c) trace_capacity;
         field "trace_dropped" (fun d -> Json.Int d) trace_dropped;
         field "registry_enabled" (fun b -> Json.Bool b) registry_enabled;
       ])

let data : Snapshot.data -> Json.t = function
  | Snapshot.Counter v -> Obj [ ("kind", String "counter"); ("value", Int v) ]
  | Snapshot.Sum v -> Obj [ ("kind", String "sum"); ("value", Float v) ]
  | Snapshot.Gauge v -> Obj [ ("kind", String "gauge"); ("value", Float v) ]
  | Snapshot.Histogram h ->
      let bound v = if h.Snapshot.count = 0 then Json.Null else Json.of_int64 v in
      let bucket (idx, n) =
        let b = Buckets.bound idx in
        Json.List
          [ (if Int64.equal b Int64.max_int then Null else Json.of_int64 b); Int n ]
      in
      Obj
        [
          ("kind", String "histogram");
          ("count", Int h.Snapshot.count);
          ("total", Json.of_int64 h.Snapshot.total);
          ("min", bound h.Snapshot.min);
          ("max", bound h.Snapshot.max);
          ("buckets", List (List.map bucket h.Snapshot.buckets));
        ]

let to_json snapshot =
  Json.Obj
    (List.map (fun (name, d) -> (name, data d)) (Snapshot.to_list snapshot))

(* One metric's subtree at a time: a fleet snapshot's whole tree is several
   megabytes that would otherwise be promoted just to be printed. *)
let to_json_string ?meta snapshot =
  let buf = Buffer.create 1024 in
  let metrics buf =
    Json.obj_to_buffer buf
      (fun buf d -> Json.to_buffer buf (data d))
      (Snapshot.to_list snapshot)
  in
  (match meta with
  | None -> metrics buf
  | Some m ->
      Json.obj_to_buffer buf
        (fun buf write -> write buf)
        [ ("meta", fun buf -> Json.to_buffer buf m); ("metrics", metrics) ]);
  Buffer.contents buf

let float_repr f = Json.to_string (Float f)
