(* Shared helpers for the protocol test suites. *)

open Bft_core

let default_config ?(f = 1) ?(checkpoint_interval = 8) ?(log_window = 16) () =
  Config.make ~f ~checkpoint_interval ~log_window ()

type rig = {
  cluster : Cluster.t;
  clients : Client.t array;
  mutable results : (int * Payload.t) list;  (* (client index, result) newest first *)
}

let make ?(config = default_config ()) ?(seed = 42) ?(behaviors = [])
    ?(service = fun _ -> Service.null ()) ?(nclients = 1) () =
  let cluster = Cluster.create ~config ~seed ~behaviors ~service () in
  let clients = Array.init nclients (fun _ -> Cluster.add_client cluster) in
  { cluster; clients; results = [] }

(* Drive [per_client] sequential null ops on every client; returns the count
   of completed operations after running until [until]. *)
let run_ops ?(arg = 8) ?(res = 8) ?(read_only = false) ?(per_client = 10)
    ?(until = 30.0) rig =
  let completed = ref 0 in
  Array.iteri
    (fun idx client ->
      let rec loop remaining =
        if remaining > 0 then
          Client.invoke client ~read_only
            (Service.null_op ~read_only ~arg_size:arg ~result_size:res)
            (fun outcome ->
              incr completed;
              rig.results <- (idx, outcome.Client.result) :: rig.results;
              loop (remaining - 1))
      in
      loop per_client)
    rig.clients;
  Cluster.run ~until rig.cluster;
  !completed

let views rig =
  Array.to_list (Array.map Replica.view (Cluster.replicas rig.cluster))

let executed rig =
  Array.to_list (Array.map Replica.last_executed (Cluster.replicas rig.cluster))

let metric rig i name = Metrics.count (Replica.metrics (Cluster.replica rig.cluster i)) name

let sum_metric rig name =
  Array.fold_left
    (fun acc r -> acc + Metrics.count (Replica.metrics r) name)
    0
    (Cluster.replicas rig.cluster)

(* Safety: the finally-executed (seq, batch digest) sequences of correct
   replicas must be prefix-compatible — no two correct replicas ever execute
   different batches at the same sequence number. *)
let check_agreement rig =
  match Audit.agreement (Cluster.correct_replicas rig.cluster) with
  | [] -> ()
  | (seq, _, _) :: _ -> Alcotest.failf "agreement violated at seq %d" seq
