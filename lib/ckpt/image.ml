type meta = {
  scenario : string;
  seed : int64;
  shards : int;
  index : int;
  sim_ns : Sw_sim.Time.t;
  fingerprint : string;
  payload_digest : Digest.t;
  payload_len : int;
}

type error =
  | Truncated
  | Bad_magic
  | Version_mismatch of { found : int; expected : int }
  | Corrupt of string
  | Io of string

let pp_error fmt = function
  | Truncated -> Format.fprintf fmt "truncated image"
  | Bad_magic -> Format.fprintf fmt "not a checkpoint image (bad magic)"
  | Version_mismatch { found; expected } ->
      Format.fprintf fmt "image format v%d, this binary reads v%d" found
        expected
  | Corrupt what -> Format.fprintf fmt "corrupt image: %s" what
  | Io msg -> Format.fprintf fmt "io error: %s" msg

let error_to_string e = Format.asprintf "%a" pp_error e

let magic = "SWCKPT"

(* v2: [meta.sim_ns] is an immediate int ([Sw_sim.Time.t]), no longer a
   boxed int64, so a v1 header would unmarshal to the wrong value. *)
let version = 2

(* magic + 2 version digits + 8-byte big-endian header length *)
let preamble_len = String.length magic + 2 + 8

let ( let* ) = Result.bind

let write ~path meta ~payload =
  let meta =
    { meta with payload_digest = Digest.string payload;
      payload_len = String.length payload }
  in
  let header = Marshal.to_string meta [] in
  let preamble = Bytes.create preamble_len in
  Bytes.blit_string magic 0 preamble 0 (String.length magic);
  Bytes.blit_string (Printf.sprintf "%02d" version) 0 preamble
    (String.length magic) 2;
  Bytes.set_int64_be preamble (String.length magic + 2)
    (Int64.of_int (String.length header));
  let tmp = path ^ ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_bytes oc preamble;
        Out_channel.output_string oc header;
        Out_channel.output_string oc payload);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Io msg)

(* Reads the preamble and header; returns the meta and the channel
   positioned at the payload. *)
let read_framing ic =
  let* preamble =
    match really_input_string ic preamble_len with
    | s -> Ok s
    | exception End_of_file -> Error Truncated
  in
  let* () =
    if String.sub preamble 0 (String.length magic) = magic then Ok ()
    else Error Bad_magic
  in
  let* found =
    match int_of_string_opt (String.sub preamble (String.length magic) 2) with
    | Some v -> Ok v
    | None -> Error Bad_magic
  in
  let* () =
    if found = version then Ok ()
    else Error (Version_mismatch { found; expected = version })
  in
  let header_len =
    Int64.to_int
      (Bytes.get_int64_be
         (Bytes.of_string preamble)
         (String.length magic + 2))
  in
  let* () =
    if header_len > 0 && header_len <= 1 lsl 24 then Ok ()
    else Error (Corrupt "implausible header length")
  in
  let* header =
    match really_input_string ic header_len with
    | s -> Ok s
    | exception End_of_file -> Error Truncated
  in
  match (Marshal.from_string header 0 : meta) with
  | meta -> Ok meta
  | exception _ -> Error (Corrupt "unreadable header")

let with_image path f =
  match In_channel.with_open_bin path f with
  | v -> v
  | exception Sys_error msg -> Error (Io msg)

let read_meta ~path = with_image path read_framing

let read ~path =
  with_image path (fun ic ->
      let* meta = read_framing ic in
      let* () =
        if meta.payload_len >= 0 then Ok ()
        else Error (Corrupt "negative payload length")
      in
      let* payload =
        match really_input_string ic meta.payload_len with
        | s -> Ok s
        | exception End_of_file -> Error Truncated
      in
      let* () =
        if Digest.equal (Digest.string payload) meta.payload_digest then Ok ()
        else Error (Corrupt "payload digest mismatch")
      in
      Ok (meta, payload))
