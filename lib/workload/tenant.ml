module Rng = Rsmr_sim.Rng
module Kv = Rsmr_app.Kv

type t = {
  rng : Rng.t;
  tenants : Keys.t; (* Zipf over tenant ids *)
  keys : Keys.t; (* Zipf over each tenant's private key slots *)
  keys_per_tenant : int;
  read_ratio : float;
  value_size : int;
  mutable counter : int;
}

let create ~rng ~tenants ~keys_per_tenant ?(tenant_theta = 0.8)
    ?(key_theta = 0.99) ?(read_ratio = 0.5) ?(value_size = 64) () =
  if tenants <= 0 then invalid_arg "Tenant.create: tenants must be positive";
  if keys_per_tenant <= 0 then
    invalid_arg "Tenant.create: keys_per_tenant must be positive";
  {
    rng;
    tenants = Keys.zipf ~n:tenants ~theta:tenant_theta;
    keys = Keys.zipf ~n:keys_per_tenant ~theta:key_theta;
    keys_per_tenant;
    read_ratio;
    value_size;
    counter = 0;
  }

let next_index t =
  let tenant = Keys.sample t.tenants t.rng in
  let k = Keys.sample t.keys t.rng in
  (tenant * t.keys_per_tenant) + k

let next_key t = Keys.key_name (next_index t)

let next t =
  let key = next_key t in
  if Rng.bernoulli t.rng t.read_ratio then Kv.encode_command (Kv.Get key)
  else begin
    t.counter <- t.counter + 1;
    Kv.encode_command
      (Kv.Put (key, Kv_gen.value_of_size t.value_size ~seed:t.counter))
  end
