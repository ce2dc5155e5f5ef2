module Payload = Bft_core.Payload
module Service = Bft_core.Service
module Enc = Bft_util.Codec.Enc
module Dec = Bft_util.Codec.Dec
module Fingerprint = Bft_crypto.Fingerprint

type op = Read of string | Add of string * int

let op_payload op =
  let enc = Enc.create () in
  (match op with
  | Read name ->
    Enc.u8 enc 0;
    Enc.bytes enc name
  | Add (name, delta) ->
    Enc.u8 enc 1;
    Enc.bytes enc name;
    Enc.u64 enc (Int64.of_int delta));
  Payload.of_string (Enc.to_string enc)

let op_of_payload (p : Payload.t) =
  let dec = Dec.of_string p.Payload.data in
  match Dec.u8 dec with
  | 0 -> Some (Read (Dec.bytes dec))
  | 1 ->
    let name = Dec.bytes dec in
    let delta = Int64.to_int (Dec.u64 dec) in
    Some (Add (name, delta))
  | _ | (exception Bft_util.Codec.Decode_error _) -> None

let value_payload v =
  let enc = Enc.create () in
  Enc.u64 enc (Int64.of_int v);
  Payload.of_string (Enc.to_string enc)

let value_of_payload (p : Payload.t) =
  match Dec.u64 (Dec.of_string p.Payload.data) with
  | v -> Some (Int64.to_int v)
  | exception Bft_util.Codec.Decode_error _ -> None

let no_undo () = ()

let service () =
  let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let dirty = ref 0 in
  let encode_state () =
    let enc = Enc.create () in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []
    |> List.sort compare
    |> List.iter (fun (k, v) ->
           Enc.bytes enc k;
           Enc.u64 enc (Int64.of_int v));
    Enc.to_string enc
  in
  let snapshot () = Payload.of_string (encode_state ()) in
  {
    Service.name = "counter";
    execute =
      (fun ~client:_ ~op ->
        match op_of_payload op with
        | Some (Read name) ->
          (value_payload (Option.value ~default:0 (Hashtbl.find_opt counters name)),
           no_undo)
        | Some (Add (name, delta)) ->
          let old = Option.value ~default:0 (Hashtbl.find_opt counters name) in
          Hashtbl.replace counters name (old + delta);
          dirty := !dirty + 16;
          (value_payload (old + delta),
           fun () -> Hashtbl.replace counters name old)
        | None -> (value_payload 0, no_undo));
    is_read_only =
      (fun op -> match op_of_payload op with Some (Read _) -> true | _ -> false);
    execute_cost = (fun _ -> 0.5e-6);
    state_digest = (fun () -> Fingerprint.of_string (encode_state ()));
    modified_since_checkpoint = (fun () -> !dirty);
    checkpoint_taken = (fun () -> dirty := 0);
    snapshot;
    capture = Service.capture_of_snapshot snapshot;
    restore =
      (fun p ->
        Hashtbl.reset counters;
        let dec = Dec.of_string p.Payload.data in
        while not (Dec.at_end dec) do
          let k = Dec.bytes dec in
          let v = Int64.to_int (Dec.u64 dec) in
          Hashtbl.replace counters k v
        done;
        dirty := 0);
  }
