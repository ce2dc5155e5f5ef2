(** Seedless key → slot hashing shared by the shard router and the
    replicated KV service.

    FNV-1a over the key bytes, reduced modulo the slot count. No seed and
    no host randomness, so every party — routers built at different times,
    replicas executing slot-addressed migration operations — computes the
    same owner slot for a key in every run and on every machine. *)

val slot_of_key : slots:int -> string -> int
(** The 64-bit FNV-1a of the key bytes, mod [slots] (unsigned). Raises
    [Invalid_argument] when [slots <= 0]. *)
