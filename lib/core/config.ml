type shed_policy = Reject_new | Drop_oldest

type ordering = Single_primary | Rotating of { epoch_length : int }

type t = {
  f : int;
  n : int;
  checkpoint_interval : int;
  log_window : int;
  batch_window : int;
  max_batch_requests : int;
  view_change_timeout : float;
  client_retry_timeout : float;
  digest_replies : bool;
  tentative_execution : bool;
  piggyback_commits : bool;
  read_only_optimization : bool;
  batching : bool;
  separate_request_transmission : bool;
  public_key_signatures : bool;
  unsafe_no_commit_quorum : bool;
  admission_queue_limit : int;
  shed_policy : shed_policy;
  shed_retry_budget : int;
  ordering : ordering;
}

let max_batch_bytes = 4096

let inline_threshold = 255

let commit_flush_delay = 0.002

let make ?(checkpoint_interval = 128) ?(log_window = 256) ?(batch_window = 1)
    ?(max_batch_requests = 16) ?(view_change_timeout = 0.25)
    ?(client_retry_timeout = 0.15) ?(digest_replies = true)
    ?(tentative_execution = true) ?(piggyback_commits = false)
    ?(read_only_optimization = true)
    ?(batching = true) ?(separate_request_transmission = true)
    ?(public_key_signatures = false) ?(unsafe_no_commit_quorum = false)
    ?(admission_queue_limit = 0) ?(shed_policy = Reject_new)
    ?(shed_retry_budget = 8) ?(ordering = Single_primary) ~f () =
  {
    f;
    n = (3 * f) + 1;
    checkpoint_interval;
    log_window;
    batch_window;
    max_batch_requests;
    view_change_timeout;
    client_retry_timeout;
    digest_replies;
    tentative_execution;
    piggyback_commits;
    read_only_optimization;
    batching;
    separate_request_transmission;
    public_key_signatures;
    unsafe_no_commit_quorum;
    admission_queue_limit;
    shed_policy;
    shed_retry_budget;
    ordering;
  }

let validate t =
  if t.f < 1 then Error "f must be at least 1"
  else if t.n <> (3 * t.f) + 1 then Error "n must be 3f+1"
  else if t.checkpoint_interval < 1 then Error "checkpoint interval must be positive"
  else if t.log_window < 2 * t.checkpoint_interval then
    Error "log window must cover at least two checkpoint intervals"
  else if t.batch_window < 1 then Error "batch window must be positive"
  else if t.max_batch_requests < 1 then Error "batch must allow a request"
  else if t.admission_queue_limit < 0 then
    Error "admission queue limit must be non-negative (0 disables shedding)"
  else if t.shed_retry_budget < 0 then
    Error "shed retry budget must be non-negative"
  else
    match t.ordering with
    | Single_primary -> Ok ()
    | Rotating { epoch_length } ->
      if epoch_length < 1 then Error "epoch length must be positive"
      else Ok ()
