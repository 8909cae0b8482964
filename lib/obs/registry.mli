(** Observatory: one labeled metrics registry for a whole run.

    The registry unifies the run's instruments (integer counters,
    [Histogram], [Timeseries]) behind a single handle with structured
    labels, and owns the run's {!Rsmr_sim.Trace} bus so span collectors
    and other listeners have one place to subscribe.

    {2 Cells and labels}

    A cell is identified by a metric name plus a canonical (sorted,
    deduplicated) label set, e.g. [applied{epoch=1,node=2}].  Lookup
    functions are find-or-create and return the {e live} instrument, so
    hot paths resolve a cell once at setup and then mutate it directly:

    {[
      let c_applied = Registry.counter reg ~labels:[ ("node", "2") ] "applied" in
      ... incr c_applied (* per event; no hashing, no allocation *)
    ]}

    {2 Scopes}

    [scope reg ~node ~epoch] pre-binds a label set so per-node/per-epoch
    cells stop being name-mangled by hand ([Printf.sprintf "n%d.%s"]).

    {2 Sections}

    Run-level counts carry a [section] label: ["net"] for the network,
    ["svc"] for the service or Raft, ["shard"] for the platform.  The
    network's per-message-type counts add an [msg_type] label
    ([sent{msg_type=block.accept,section=net}]).  {!counters} reads a
    section back as a flat table with dotted keys ([sent.block.accept]).

    {2 Export}

    [to_json] renders the whole registry as one deterministic
    machine-readable document (schema [rsmr-metrics/1]): keys sorted,
    cells sorted by (name, labels), stable float formatting.  Equal
    registries produce byte-identical documents regardless of insertion
    order. *)

type t

type labels = (string * string) list
(** Label sets are canonicalized on entry: sorted by key then value,
    exact duplicates removed.  Keys and values must not contain ['{'],
    ['}'], [','] or ['=']. *)

val create : ?meta:labels -> unit -> t
(** [meta] is run-level metadata exported under ["meta"] in the JSON
    document (e.g. [proto], [seed], [label]). *)

val set_meta : t -> string -> string -> unit
(** Add or replace one run-level metadata key. *)

val meta : t -> labels

val bus : t -> Rsmr_sim.Trace.t
(** The registry's trace bus.  Protocol code emits lifecycle events here;
    span collectors subscribe here. *)

(** {1 Cells} *)

val counter : ?labels:labels -> t -> string -> int ref
(** Find-or-create a counter cell; the returned ref is the live cell. *)

val histogram : ?labels:labels -> t -> string -> Rsmr_sim.Histogram.t

val series : ?labels:labels -> t -> string -> Rsmr_sim.Timeseries.t

(** {1 Scopes} *)

type scope
(** A registry handle with a pre-bound label set. *)

val scope : ?node:int -> ?epoch:int -> ?labels:labels -> t -> scope

val scope_counter : scope -> string -> int ref
(** The live cell [name] under the scope's labels.  The scope remembers
    each cell it has handed out, so a repeated lookup costs one table
    probe. *)

(** {1 Section views} *)

val counters : t -> string -> Rsmr_sim.Counters.t
(** [counters t section] is a read-only, live view of the counter cells
    labelled exactly [("section", section)], keyed by cell name, and of
    those labelled [("section", section)] plus [("msg_type", m)], keyed
    [name ^ "." ^ m].  Every read sees the cells' current values. *)

(** {1 Aggregation and export} *)

type flat_counter = { f_name : string; f_labels : labels; f_value : int }

val flat_counters : t -> flat_counter list
(** Every counter cell the document will carry, sorted by (name,
    labels), exactly as exported. *)

val to_json : t -> string
(** The [rsmr-metrics/1] document.  Deterministic: equal registries
    render byte-identically. *)

val save : t -> path:string -> unit
(** Write [to_json] to [path] (trailing newline included). *)
