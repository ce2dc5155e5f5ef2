module Fingerprint = Bft_crypto.Fingerprint

type 'k conflict =
  'k * (Types.replica_id * Fingerprint.t) * (Types.replica_id * Fingerprint.t)

(* The first digest recorded per key wins; every later disagreement is one
   conflict against it. *)
let conflicts trail replicas =
  let first = Hashtbl.create 256 in
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (key, digest) ->
          match Hashtbl.find_opt first key with
          | None ->
            Hashtbl.replace first key (Replica.id r, digest);
            None
          | Some (rid0, d0) ->
            if Fingerprint.equal d0 digest then None
            else Some (key, (rid0, d0), (Replica.id r, digest)))
        (trail r))
    replicas

let agreement = conflicts Replica.executed_digests

let replies =
  conflicts (fun r ->
      List.map (fun (c, ts, d) -> ((c, ts), d)) (Replica.client_replies r))

(* The trail appends only at finalization, so a sequence number appearing
   twice in it means a batch was ordered (and executed) twice — the failure
   mode of a broken epoch handoff re-proposing a predecessor's slot. *)
let unique_execution replicas =
  List.filter_map
    (fun r ->
      let seen = Hashtbl.create 256 in
      List.find_map
        (fun (seq, _) ->
          if Hashtbl.mem seen seq then Some (Replica.id r, seq)
          else (
            Hashtbl.replace seen seq ();
            None))
        (Replica.executed_digests r))
    replicas

let caught_up replicas =
  let top =
    List.fold_left (fun acc r -> Stdlib.max acc (Replica.last_executed r)) 0
      replicas
  in
  List.filter_map
    (fun r -> if Replica.last_executed r = top then Some (Replica.id r) else None)
    replicas
