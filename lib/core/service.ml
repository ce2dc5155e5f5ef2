module Fingerprint = Bft_crypto.Fingerprint

type undo = unit -> unit

type capture = { length : int; pad : int; payload : Payload.t Lazy.t }

type t = {
  execute : client:Types.client_id -> op:Payload.t -> Payload.t * undo;
  is_read_only : Payload.t -> bool;
  execute_cost : Payload.t -> float;
  state_digest : unit -> Bft_crypto.Fingerprint.t;
  modified_since_checkpoint : unit -> int;
  checkpoint_taken : unit -> unit;
  snapshot : unit -> Payload.t;
  capture : unit -> capture;
  restore : Payload.t -> unit;
}

let no_undo () = ()

let capture_of_snapshot snapshot () =
  let p = snapshot () in
  { length = String.length p.Payload.data; pad = p.Payload.pad; payload = Lazy.from_val p }

(* A null op encodes its read-only flag and requested result size in the
   payload data ("R:4096"), and its argument size in padding; replicas can
   therefore check the read-only flag server-side, and one service instance
   covers every a/b micro-benchmark combination. *)
let null_op ~read_only ~arg_size ~result_size =
  let tag = if read_only then "R" else "W" in
  { Payload.data = Printf.sprintf "%s:%d" tag result_size; pad = arg_size }

let parse_result_size op =
  match String.index_opt op.Payload.data ':' with
  | None -> 0
  | Some i -> (
    match
      int_of_string_opt
        (String.sub op.Payload.data (i + 1) (String.length op.Payload.data - i - 1))
    with
    | Some n when n >= 0 -> n
    | _ -> 0)

let null () =
  {
    execute =
      (fun ~client:_ ~op -> (Payload.zeros (parse_result_size op), no_undo));
    is_read_only =
      (fun op -> String.length op.Payload.data > 0 && op.Payload.data.[0] = 'R');
    execute_cost = (fun _ -> 0.0);
    state_digest = (fun () -> Fingerprint.of_string "null-service");
    modified_since_checkpoint = (fun () -> 0);
    checkpoint_taken = (fun () -> ());
    snapshot = (fun () -> Payload.empty);
    capture = capture_of_snapshot (fun () -> Payload.empty);
    restore = (fun _ -> ());
  }
