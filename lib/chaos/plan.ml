module Behavior = Bft_core.Behavior
module Rng = Bft_util.Rng

type action =
  | Crash of Bft_core.Types.replica_id
  | Crash_owner
  | Restart of Bft_core.Types.replica_id
  | Partition of Bft_core.Types.replica_id list list
  | Heal
  | Set_loss of float
  | Set_dup of float
  | Behavior_switch of Bft_core.Types.replica_id * Behavior.t
  | Client_burst of int
  | Load_spike of { rate : float; duration : float }
  | Load_ramp of { rate_to : float; duration : float }

type event = { at : float; action : action }

type t = event list

(* A load spike or ramp keeps generating arrivals for its whole window, so
   a plan's duration extends to the end of the window, not just its start:
   the campaign's settle phase must begin after the last arrival. *)
let event_end e =
  match e.action with
  | Load_spike { duration; _ } | Load_ramp { duration; _ } -> e.at +. duration
  | _ -> e.at

let duration = function
  | [] -> 0.0
  | evs -> List.fold_left (fun acc e -> Stdlib.max acc (event_end e)) 0.0 evs

let sort evs =
  (* stable, so simultaneous events keep their plan order *)
  List.stable_sort (fun a b -> Float.compare a.at b.at) evs

let groups_to_string groups =
  String.concat "|"
    (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups)

let pp_action ppf = function
  | Crash r -> Format.fprintf ppf "crash %d" r
  | Crash_owner -> Format.fprintf ppf "crash-owner"
  | Restart r -> Format.fprintf ppf "restart %d" r
  | Partition groups -> Format.fprintf ppf "partition %s" (groups_to_string groups)
  | Heal -> Format.fprintf ppf "heal"
  | Set_loss p -> Format.fprintf ppf "loss %.6f" p
  | Set_dup p -> Format.fprintf ppf "dup %.6f" p
  | Behavior_switch (r, b) ->
    Format.fprintf ppf "behavior %d %s" r (Behavior.to_string b)
  | Client_burst k -> Format.fprintf ppf "burst %d" k
  | Load_spike { rate; duration } ->
    Format.fprintf ppf "spike %.6f %.6f" rate duration
  | Load_ramp { rate_to; duration } ->
    Format.fprintf ppf "ramp %.6f %.6f" rate_to duration

let event_to_string e = Format.asprintf "%.6f %a" e.at pp_action e.action

let to_string t =
  String.concat "" (List.map (fun e -> event_to_string e ^ "\n") t)

let parse_groups s =
  String.split_on_char '|' s
  |> List.map (fun g ->
         String.split_on_char ',' g
         |> List.filter (fun x -> x <> "")
         |> List.map int_of_string)
  |> List.filter (fun g -> g <> [])

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ at; "crash"; r ] -> { at = float_of_string at; action = Crash (int_of_string r) }
  | [ at; "crash-owner" ] -> { at = float_of_string at; action = Crash_owner }
  | [ at; "restart"; r ] ->
    { at = float_of_string at; action = Restart (int_of_string r) }
  | [ at; "partition"; groups ] ->
    { at = float_of_string at; action = Partition (parse_groups groups) }
  | [ at; "heal" ] -> { at = float_of_string at; action = Heal }
  | [ at; "loss"; p ] -> { at = float_of_string at; action = Set_loss (float_of_string p) }
  | [ at; "dup"; p ] -> { at = float_of_string at; action = Set_dup (float_of_string p) }
  | [ at; "behavior"; r; b ] ->
    {
      at = float_of_string at;
      action = Behavior_switch (int_of_string r, Option.get (Behavior.of_string b));
    }
  | [ at; "burst"; k ] ->
    { at = float_of_string at; action = Client_burst (int_of_string k) }
  | [ at; "spike"; rate; dur ] ->
    {
      at = float_of_string at;
      action =
        Load_spike { rate = float_of_string rate; duration = float_of_string dur };
    }
  | [ at; "ramp"; rate; dur ] ->
    {
      at = float_of_string at;
      action =
        Load_ramp
          { rate_to = float_of_string rate; duration = float_of_string dur };
    }
  | _ -> failwith "unrecognized event"

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (sort (List.rev acc))
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go acc (lineno + 1) rest
      else (
        match parse_line trimmed with
        | ev -> go (ev :: acc) (lineno + 1) rest
        | exception _ ->
          Error (Printf.sprintf "plan line %d: cannot parse %S" lineno trimmed))
  in
  go [] 1 lines

(* Every comparison below is written so that NaN fails it: a NaN time,
   rate or duration would otherwise pass and never let a run finish. *)
let validate ~n t =
  let check_id r what =
    if r < 0 || r >= n then
      Error (Printf.sprintf "%s: replica %d out of range (n = %d)" what r n)
    else Ok ()
  in
  let check_prob p what =
    if not (p >= 0.0 && p <= 1.0) then
      Error (Printf.sprintf "%s: probability %g outside [0, 1]" what p)
    else Ok ()
  in
  let check_positive x what =
    if not (x > 0.0 && Float.is_finite x) then
      Error (Printf.sprintf "%s must be positive and finite, not %g" what x)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let check_event e =
    let* () =
      if not (e.at >= 0.0 && Float.is_finite e.at) then
        Error (Printf.sprintf "event at %g: time must be non-negative and finite" e.at)
      else Ok ()
    in
    match e.action with
    | Crash r -> check_id r "crash"
    | Crash_owner -> Ok ()
    | Restart r -> check_id r "restart"
    | Heal -> Ok ()
    | Set_loss p -> check_prob p "loss"
    | Set_dup p -> check_prob p "dup"
    | Client_burst k ->
      if k <= 0 then Error "burst: size must be positive" else Ok ()
    | Load_spike { rate; duration } ->
      let* () = check_positive rate "spike: rate" in
      check_positive duration "spike: duration"
    | Load_ramp { rate_to; duration } ->
      let* () = check_positive rate_to "ramp: target rate" in
      check_positive duration "ramp: duration"
    | Behavior_switch (r, b) ->
      let* () = check_id r "behavior" in
      (match b with
      | Behavior.Crash_at _ ->
        Error "behavior: crash-at is not switchable (use crash/restart events)"
      | Behavior.Slow s when not (s >= 0.0 && Float.is_finite s) ->
        Error
          (Printf.sprintf "behavior: slow takes non-negative finite seconds, not %g" s)
      | _ -> Ok ())
    | Partition groups ->
      let ids = List.concat groups in
      let* () =
        List.fold_left
          (fun acc r -> Result.bind acc (fun () -> check_id r "partition"))
          (Ok ()) ids
      in
      if List.length ids <> List.length (List.sort_uniq compare ids) then
        Error "partition: groups must be disjoint"
      else if List.length groups < 2 then
        Error "partition: need at least two groups"
      else Ok ()
  in
  List.fold_left (fun acc e -> Result.bind acc (fun () -> check_event e)) (Ok ()) t

(* --- generator --- *)

let pick_fault_set rng ~n ~f =
  (* f distinct replicas; every crash or Byzantine switch in the plan
     targets this set, keeping the run inside the 3f+1 fault assumption. *)
  let rec go acc k =
    if k = 0 then acc
    else
      let r = Rng.int rng n in
      if List.mem r acc then go acc k else go (r :: acc) (k - 1)
  in
  go [] f

let random_partition rng ~n =
  (* split the replicas in two non-empty groups *)
  let cut = 1 + Rng.int rng (n - 1) in
  let all = List.init n (fun i -> i) in
  let rec split acc rest k =
    match rest with
    | [] -> (List.rev acc, [])
    | _ when k = 0 -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest (k - 1)
  in
  let a, b = split [] all cut in
  [ a; b ]

let byzantine_menu =
  [|
    Behavior.Mute;
    Behavior.Two_faced;
    Behavior.Corrupt_replies;
    Behavior.Forge_auth;
    Behavior.Stale_view;
    Behavior.Replay;
    Behavior.Inflate_view 1_000_000;
  |]

let generate ?(rotating = false) ~rng ~n ~f ~horizon () =
  let faulty = pick_fault_set rng ~n ~f in
  let faulty_one () = List.nth faulty (Rng.int rng (List.length faulty)) in
  (* A crash-owner resolves to an arbitrary replica at fire time, so it
     cannot share a plan with fault-set crashes or Byzantine switches: the
     owner it hits may lie outside the fault set, and two budgeted faults
     on distinct replicas would exceed the f-replica assumption the
     campaign checker's liveness bounds rely on. Owner-mode plans spend
     their whole fault budget on a single crash-owner; the coin is only
     tossed under [rotating], keeping the default RNG stream untouched. *)
  let owner_mode = rotating && Rng.bernoulli rng 0.5 in
  let owner_crashed = ref false in
  let t_in lo hi = lo +. Rng.float rng (hi -. lo) in
  let count = 2 + Rng.int rng 5 in
  let events = ref [] in
  let emit at action = events := { at; action } :: !events in
  (* A fault that lands while the protocol is idle exercises nothing, so
     crashes and partitions are usually preceded by a client burst a few
     milliseconds earlier: the cut then hits requests mid-quorum, which is
     exactly the window where a broken protocol loses agreement. *)
  let lead_burst at =
    if Rng.bernoulli rng 0.6 then
      emit (Stdlib.max 0.0 (at -. 0.002 -. Rng.float rng 0.02)) (Client_burst (4 + Rng.int rng 5))
  in
  for _ = 1 to count do
    let at = t_in (0.05 *. horizon) (0.75 *. horizon) in
    match Rng.int rng 8 with
    | 0 ->
      (* crash, and usually restart before the horizon so the plan itself
         exercises restart-from-checkpoint (the forced heal covers the rest).
         Owner-mode plans instead aim one crash at whichever replica owns
         the next sequence number when the event fires — the epoch handoff
         is exactly the window a broken rotation loses batches in. The
         owner is unpredictable at generation time, so a crash-owner is
         left down until the campaign's forced heal (crashes are benign:
         they cost liveness during the window, never safety). *)
      if owner_mode then begin
        if not !owner_crashed then begin
          owner_crashed := true;
          lead_burst at;
          emit at Crash_owner
        end
        else emit at (Client_burst (1 + Rng.int rng 6))
      end
      else begin
        let r = faulty_one () in
        lead_burst at;
        emit at (Crash r);
        if Rng.bernoulli rng 0.7 then
          emit (t_in at (0.95 *. horizon)) (Restart r)
      end
    | 1 ->
      lead_burst at;
      emit at (Partition (random_partition rng ~n));
      if Rng.bernoulli rng 0.8 then emit (t_in at (0.95 *. horizon)) Heal
    | 2 -> emit at (Set_loss (Rng.float rng 0.35))
    | 3 -> emit at (Set_dup (Rng.float rng 0.15))
    | 4 when owner_mode ->
      (* Byzantine switches also spend fault budget; an owner-mode plan
         has already committed its budget to the crash-owner. *)
      emit at (Client_burst (1 + Rng.int rng 6))
    | 4 ->
      let r = faulty_one () in
      let b =
        if Rng.bernoulli rng 0.2 then Behavior.Slow (0.0005 +. Rng.float rng 0.003)
        else byzantine_menu.(Rng.int rng (Array.length byzantine_menu))
      in
      emit at (Behavior_switch (r, b));
      if Rng.bernoulli rng 0.5 then
        emit (t_in at (0.95 *. horizon)) (Behavior_switch (r, Behavior.Correct))
    | 5 ->
      (* open-loop burst: offered load far past what a handful of
         closed-loop clients can generate — exercises admission control *)
      emit at
        (Load_spike
           {
             rate = 150.0 +. Rng.float rng 500.0;
             duration = 0.05 +. Rng.float rng (0.2 *. horizon);
           })
    | 6 ->
      emit at
        (Load_ramp
           {
             rate_to = 150.0 +. Rng.float rng 500.0;
             duration = 0.05 +. Rng.float rng (0.2 *. horizon);
           })
    | _ -> emit at (Client_burst (1 + Rng.int rng 6))
  done;
  sort (List.rev !events)
