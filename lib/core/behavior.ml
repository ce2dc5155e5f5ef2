type t =
  | Correct
  | Crash_at of float
  | Mute
  | Two_faced
  | Corrupt_replies
  | Forge_auth
  | Stale_view
  | Replay
  | Inflate_view of int
  | Slow of float

let is_correct = function
  | Correct | Slow _ -> true
  | Crash_at _ | Mute | Two_faced | Corrupt_replies | Forge_auth | Stale_view
  | Replay | Inflate_view _ ->
    false

(* Stable names for fault-plan files: [of_string (to_string b) = Some b]. *)
let to_string = function
  | Correct -> "correct"
  | Crash_at t -> Printf.sprintf "crash-at:%.6f" t
  | Mute -> "mute"
  | Two_faced -> "two-faced"
  | Corrupt_replies -> "corrupt-replies"
  | Forge_auth -> "forge-auth"
  | Stale_view -> "stale-view"
  | Replay -> "replay"
  | Inflate_view k -> Printf.sprintf "inflate-view:%d" k
  | Slow s -> Printf.sprintf "slow:%.6f" s

(* For people, a parameter reads in its unit; every name is [to_string]'s. *)
let pp fmt = function
  | Crash_at t -> Format.fprintf fmt "crash@%.3fs" t
  | Inflate_view k -> Format.fprintf fmt "inflate-view+%d" k
  | Slow s -> Format.fprintf fmt "slow+%.0fus" (s *. 1e6)
  | b -> Format.pp_print_string fmt (to_string b)

let of_string s =
  match String.index_opt s ':' with
  | None ->
    List.find_opt
      (fun b -> String.equal (to_string b) s)
      [ Correct; Mute; Two_faced; Corrupt_replies; Forge_auth; Stale_view; Replay ]
  | Some i -> (
    let tag = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match tag with
    | "inflate-view" ->
      Option.map (fun k -> Inflate_view k) (int_of_string_opt arg)
    | _ -> (
      match (tag, float_of_string_opt arg) with
      | "crash-at", Some v -> Some (Crash_at v)
      | "slow", Some v -> Some (Slow v)
      | _ -> None))

(* --- wire faults --------------------------------------------------------- *)

(* The last [Array.length slots] of the [count] datagrams kept so far. *)
type ring = { slots : (string * int) array; mutable count : int }

let ring () = { slots = Array.make 32 ("", 0); count = 0 }

let forget ring = ring.count <- 0

(* Keep [wire] in the ring and, with p = 0.25, put a datagram from the ring
   back on the wire unchanged: the original sender's MAC vector is still
   valid for every receiver it was multicast to. *)
let remember ring ~rng ~inject ~wire ~size =
  let cap = Array.length ring.slots in
  ring.slots.(ring.count mod cap) <- (wire, size);
  ring.count <- ring.count + 1;
  if Bft_util.Rng.bernoulli rng 0.25 then begin
    let old_wire, old_size =
      ring.slots.(Bft_util.Rng.int rng (Stdlib.min ring.count cap))
    in
    inject ~wire:old_wire ~size:old_size
  end

let env ~current ~rng ~ring ~inject (base : Env.t) =
  {
    base with
    Env.send =
      (fun dst msg ->
        match (current (), msg) with
        | Mute, _ -> ()
        | Inflate_view k, Message.Reply r ->
          base.send dst (Message.Reply { r with Message.view = r.Message.view + k })
        | _ -> base.send dst msg);
    multicast =
      (fun ~commits msg ->
        match current () with Mute -> () | _ -> base.multicast ~commits msg);
    check =
      (fun rx ->
        let b = current () in
        (match b with Slow extra -> base.charge extra | _ -> ());
        let verdict = base.check rx in
        (match (b, verdict) with
        | Replay, Transport.Accepted ->
          remember ring ~rng ~inject ~wire:rx.Message.rx_wire ~size:rx.Message.rx_size
        | _ -> ());
        verdict);
    trace =
      (fun ~vtime ~node ?seqno ?view ?req_id ?detail kind ->
        match (current (), kind) with
        | Mute, Bft_trace.Trace.Reply_sent -> ()
        | _ -> base.trace ~vtime ~node ?seqno ?view ?req_id ?detail kind);
  }
