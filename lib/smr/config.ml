type t = { instance_id : int; members : Rsmr_net.Node_id.t list }

let make ~instance_id ~members =
  if members = [] then invalid_arg "Config.make: empty member set";
  let members = List.sort_uniq Rsmr_net.Node_id.compare members in
  { instance_id; members }

let size t = List.length t.members
let quorum t = (size t / 2) + 1
let is_member t n = List.exists (Rsmr_net.Node_id.equal n) t.members
let others t n = List.filter (fun m -> not (Rsmr_net.Node_id.equal m n)) t.members

let encode w t =
  Rsmr_app.Codec.Writer.varint w t.instance_id;
  Rsmr_app.Codec.Writer.list w Rsmr_app.Codec.Writer.zigzag t.members

let decode r =
  let instance_id = Rsmr_app.Codec.Reader.varint r in
  let members = Rsmr_app.Codec.Reader.list r Rsmr_app.Codec.Reader.zigzag in
  make ~instance_id ~members
