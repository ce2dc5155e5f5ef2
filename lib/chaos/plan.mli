(** Timed fault plans: the input language of the chaos campaigns.

    A plan is a timeline of fault-injection events against a running
    cluster. Plans are pure data with a stable text codec, so a failing
    plan can be written to disk, shrunk to a minimal counterexample and
    replayed byte-for-byte with [bft_lab chaos --plan FILE].

    The generator keeps every campaign inside the paper's fault
    assumption: Byzantine behaviour switches and crash/restart cycles are
    drawn from a single fault set of at most [f] replicas (a replica that
    loses its volatile log in a crash counts against the same budget the
    proactive-recovery window does), so the safety invariants checked by
    {!Campaign} are guaranteed to hold on a correct protocol. Partitions,
    datagram loss and duplication are unrestricted: they may suspend
    liveness while active but can never excuse a safety violation. *)

type action =
  | Crash of Bft_core.Types.replica_id  (** fail-stop the machine (datagrams dropped) *)
  | Crash_owner
      (** fail-stop whichever replica owns the next sequence number when
          the event fires (the current epoch owner under rotating
          ordering; the primary under single-primary ordering) — resolved
          against live replica state at execution time *)
  | Restart of Bft_core.Types.replica_id
      (** bring the machine up and reboot the replica from its last stable
          checkpoint; also meaningful without a prior [Crash] (a reboot) *)
  | Partition of Bft_core.Types.replica_id list list
      (** symmetric partition between the given replica groups; replicas
          (and client machines) not named keep full connectivity *)
  | Heal  (** remove the partition *)
  | Set_loss of float  (** uniform datagram loss probability *)
  | Set_dup of float  (** uniform datagram duplication probability *)
  | Behavior_switch of Bft_core.Types.replica_id * Bft_core.Behavior.t
      (** switch the replica's injected behaviour mid-run *)
  | Client_burst of int  (** inject this many extra client operations *)
  | Load_spike of { rate : float; duration : float }
      (** open-loop Poisson arrivals at [rate] per second for [duration]
          seconds, multiplexed over the campaign's stub pool — offered
          load independent of completions, to exercise admission control *)
  | Load_ramp of { rate_to : float; duration : float }
      (** open-loop arrivals ramping linearly from zero to [rate_to] per
          second across [duration] seconds, then stopping *)

type event = { at : float; action : action }

type t = event list
(** Sorted by time; ties fire in list order. *)

val duration : t -> float
(** Time at which the plan's last effect ends, 0 for the empty plan. A
    load spike or ramp keeps generating arrivals for its whole window, so
    it contributes [at +. duration], not just [at]. *)

val event_to_string : event -> string
(** ["0.500000 crash 2"]: the event's line in {!to_string}. *)

val to_string : t -> string
(** One event per line: ["0.500000 crash 2"], ["1.250000 partition 0|1,2,3"],
    ["2.000000 behavior 1 replay"], ... Round-trips with {!of_string}. *)

val of_string : string -> (t, string) result
(** Parses the {!to_string} format. Blank lines and [#] comments are
    ignored; events are re-sorted by time. *)

val validate : n:int -> t -> (unit, string) result
(** Replica ids in range, probabilities in [0,1], bursts positive, spike
    and ramp rates/durations positive, partition groups disjoint, times
    non-negative. *)

val generate :
  ?rotating:bool -> rng:Bft_util.Rng.t -> n:int -> f:int -> horizon:float -> unit -> t
(** A random plan whose events all fire before [horizon]. Deterministic in
    [rng]. Crash and Byzantine targets are confined to a fault set of [f]
    replicas drawn once per plan (see the module comment). With [rotating]
    (default false), half the plans become owner-mode: their entire fault
    budget is one {!Crash_owner} — aimed at whichever replica owns the
    epoch in progress when it fires — and fault-set crashes and Byzantine
    switches are suppressed, since the owner hit at runtime may lie
    outside the fault set and a second budgeted fault could exceed [f]
    simultaneously-faulty replicas. The default keeps existing seeds
    producing byte-identical plans. *)
