(** Deterministic key → replica-group routing for sharded deployments.

    Routing is two-staged, the way production sharded stores (Redis
    Cluster slots, Dynamo-style vnodes) do it: a key hashes to one of a
    fixed number of {e slots} (FNV-1a over the key bytes — no seed, no
    host randomness, so the owner of a key is the same in every run and
    on every machine), and an explicit slot → group mapping assigns each
    slot to a group. Changing the number of groups only rewrites the
    mapping table; the key → slot stage never moves, which is what makes
    resharding tractable: {!extend} grows a deployment while moving only
    the slots handed to the new groups. *)

type t

val create : ?slots:int -> groups:int -> unit -> t
(** Round-robin mapping: slot [s] belongs to group [s mod groups].
    [slots] defaults to 64: enough granularity to balance the group counts
    the bench sweeps (1–4) while keeping mapping tables human-readable.
    Raises [Invalid_argument] unless [1 <= groups <= slots]. *)

val of_mapping : groups:int -> mapping:int array -> t
(** Explicit mapping (slot [s] belongs to [mapping.(s)]); [slots] is the
    array length. Raises [Invalid_argument] if any entry is outside
    [0, groups) or the array is empty. *)

val extend : t -> groups:int -> t
(** Grow to [groups] groups moving as few keys as possible: slots are
    reassigned to the new groups round-robin from the currently
    most-loaded groups until the mapping is balanced; no slot moves
    between pre-existing groups. Raises [Invalid_argument] if [groups]
    is smaller than the current group count. *)

val groups : t -> int

val slots : t -> int

val mapping : t -> int array
(** A copy of the slot → group table. *)

val slot_of_key : t -> string -> int

val group_of_key : t -> string -> int

val keys_per_group : t -> keys:string list -> int array
(** Occupancy tally: how many of [keys] each group owns. *)
