(** Design-choice ablations beyond the paper's own figures.

    The headline one quantifies the paper's central claim — that symmetric
    cryptography (MAC vectors) rather than public-key signatures is what
    makes BFT fast — by re-running the micro-benchmark with simulated
    1024-bit signatures on every protocol message (the Rampart/SecureRing
    design point the paper cites). The others sweep the checkpoint
    interval, the batch-size bound and the batching window, and measure
    what a proactive-recovery rotation costs. *)

val all : ?quick:bool -> unit -> Report.section list
