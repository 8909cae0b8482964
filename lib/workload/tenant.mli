(** Multi-tenant key traffic: a Zipfian choice of tenant, then a Zipfian
    choice within the tenant's private key slice.

    Tenant [i] owns the contiguous index slice
    [i * keys_per_tenant .. (i+1) * keys_per_tenant - 1], rendered with
    the canonical {!Keys.key_name} — so a {!Rsmr_shard.Keyspace} cut over
    [tenants * keys_per_tenant] keys assigns whole tenants to shards
    (modulo boundary tenants), and hot tenants concentrate load on
    whichever shard owns them.  This is the aggregate-throughput
    workload for the F6/F7 platform experiments: skew across tenants
    stresses routing imbalance, skew within a tenant stresses the owning
    shard's batch formation. *)

type t

val create :
  rng:Rsmr_sim.Rng.t ->
  tenants:int ->
  keys_per_tenant:int ->
  ?tenant_theta:float ->
  ?key_theta:float ->
  ?read_ratio:float ->
  ?value_size:int ->
  unit ->
  t
(** [tenant_theta] defaults to 0.8 (a few hot tenants), [key_theta] to
    0.99 (classic YCSB skew inside a tenant), [read_ratio] to 0.5,
    [value_size] to 64 bytes. *)

val next : t -> string
(** Next encoded KV command against a sampled key (Get with probability
    [read_ratio], else Put of a fresh [value_size]-byte value). *)
