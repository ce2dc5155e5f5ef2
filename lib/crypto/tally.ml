(* Global crypto operation counters.

   The paper's Section 4.2 argument is counted in primitive operations: how
   many MACs are generated and checked and how many bytes are digested per
   request. The cycle *cost* of those operations is charged to the CPU
   model by the callers; this tally counts the operations themselves at the
   primitive entry points, so a profiling run can report paper-style
   per-request operation counts without instrumenting every call site.

   Counters are plain ints mutated from deterministic simulation code — no
   locks, no wall clock — so snapshots are reproducible for a fixed seed. *)

type snapshot = {
  mac_gen_ops : int;
  mac_gen_bytes : int;
  mac_verify_ops : int;
  mac_verify_bytes : int;
  digest_ops : int;
  digest_bytes : int;
}

let zero =
  {
    mac_gen_ops = 0;
    mac_gen_bytes = 0;
    mac_verify_ops = 0;
    mac_verify_bytes = 0;
    digest_ops = 0;
    digest_bytes = 0;
  }

(* The six counters are the one piece of cross-run state that stays
   process-global: the frozen benchmark ledger reads them through
   [snapshot]/[diff] around its measured windows. They move into the
   simulation with the next change to that ledger. *)
let mac_gen_ops = ref 0

let mac_gen_bytes = ref 0

let mac_verify_ops = ref 0

let mac_verify_bytes = ref 0

let digest_ops = ref 0

let digest_bytes = ref 0

let reset () =
  mac_gen_ops := 0;
  mac_gen_bytes := 0;
  mac_verify_ops := 0;
  mac_verify_bytes := 0;
  digest_ops := 0;
  digest_bytes := 0

let note_mac_gen bytes =
  incr mac_gen_ops;
  mac_gen_bytes := !mac_gen_bytes + bytes

let note_mac_verify bytes =
  incr mac_verify_ops;
  mac_verify_bytes := !mac_verify_bytes + bytes

let note_digest bytes =
  incr digest_ops;
  digest_bytes := !digest_bytes + bytes

let snapshot () =
  {
    mac_gen_ops = !mac_gen_ops;
    mac_gen_bytes = !mac_gen_bytes;
    mac_verify_ops = !mac_verify_ops;
    mac_verify_bytes = !mac_verify_bytes;
    digest_ops = !digest_ops;
    digest_bytes = !digest_bytes;
  }

let diff later earlier =
  {
    mac_gen_ops = later.mac_gen_ops - earlier.mac_gen_ops;
    mac_gen_bytes = later.mac_gen_bytes - earlier.mac_gen_bytes;
    mac_verify_ops = later.mac_verify_ops - earlier.mac_verify_ops;
    mac_verify_bytes = later.mac_verify_bytes - earlier.mac_verify_bytes;
    digest_ops = later.digest_ops - earlier.digest_ops;
    digest_bytes = later.digest_bytes - earlier.digest_bytes;
  }
