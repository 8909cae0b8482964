(** Simulated message-passing network.

    Polymorphic in the payload type ['m]: each experiment instantiates it
    with the union wire type of the protocols under test.  Supports the
    fault model the experiments need: probabilistic loss and duplication,
    network partitions, node crash / recovery, and asymmetric delay.
    Delivery to a crashed or partitioned-away node is silently dropped, as
    over UDP; protocols must carry their own retransmission logic.

    {b Allocation.}  The per-sender uplink time and the per-link latest
    arrivals are unboxed float cells indexed by node id, so once a link
    has carried a message, a [`Sim] send allocates only what the message
    itself needs: its envelope, its arrival closure and engine timer, the
    boxed latency draw and delay, and the option of the tag lookup; its
    delivery, the option of the handler lookup.  On a tagged network with
    LAN latency that is at most 26 words per send and delivery (pinned in
    [test/test_net.ml]).  With no link fault installed, a send builds no
    link key. *)

type 'm t

type 'm envelope = { src : Node_id.t; dst : Node_id.t; payload : 'm }

type mode = [ `Sim | `Enumerate ]
(** [`Sim] (the default) is the stochastic discrete-event network
    described above.  [`Enumerate] is the model checker's network: a
    send parks the payload on the FIFO queue of its directed link and
    class instead of scheduling a delivery event, and the checker
    consumes queue heads explicitly via {!deliver_head} / {!drop_head} —
    loss and reordering become enumerated choices rather than coin
    flips.  The mode is fixed
    at {!create} time: components send messages during construction, so
    flipping modes mid-run would strand in-flight messages. *)

val create :
  Rsmr_sim.Engine.t ->
  ?mode:mode ->
  ?latency:Latency.t ->
  ?drop:float ->
  ?bandwidth:float ->
  ?bulk:('m -> bool) ->
  ?tagger:('m -> string) ->
  ?sizer:('m -> int) ->
  ?obs:Rsmr_obs.Registry.t ->
  unit ->
  'm t
(** [sizer] estimates the wire size of a payload in bytes for the byte
    counters and the bandwidth model; defaults to a flat 64.

    [obs], when given, makes the network count into that registry's
    cells labelled [("section", "net")] instead of a private registry's.
    Each cell is resolved once, so there is no per-message lookup.

    [bandwidth], in bytes/second, models per-node egress (NIC)
    serialization: a message occupies its sender's uplink for
    [size/bandwidth] seconds and messages queue behind each other, so bulk
    transfers (snapshots) take time proportional to their size.  Default
    1.25e8 (10 GbE); [infinity] disables the model.

    [bulk] splits traffic into two classes: payloads it maps to [true]
    are bulk, all others control.  Each class queues FIFO on the uplink,
    and the uplink is non-preemptive: the message on the wire finishes,
    then the oldest queued control message goes before any queued bulk
    one.  So a control message waits for at most one bulk message, and a
    bulk message's departure moves later for every control message sent
    before it leaves.  Loss, duplication and latency are drawn at send
    time in send order for both classes, so with no bulk traffic (or no
    [bulk]) draws and arrival times are those of a one-class network.
    Default: every payload is control.

    [tagger] classifies payloads for per-message-type counters: cells
    ["sent"] and ["bytes"] that also carry [("msg_type", tag)]. *)

val register : 'm t -> Node_id.t -> ('m envelope -> unit) -> unit
(** Attach a node's receive handler.  Re-registering replaces the handler
    (used when a node restarts with fresh state). *)

val send : 'm t -> src:Node_id.t -> dst:Node_id.t -> 'm -> unit
(** Fire-and-forget.  Self-sends are delivered through the queue too (with
    near-zero latency), preserving the no-reentrancy property handlers rely
    on.  A message never overtakes an earlier one of its class on the
    same directed link, as over a TCP stream: pipelined Raft appends
    depend on it.  A control message may overtake an earlier bulk one. *)

val broadcast : 'm t -> src:Node_id.t -> dsts:Node_id.t list -> 'm -> unit
(** Send to every node in [dsts] except [src].  The payload is sized and
    tagged once for the whole fan-out (not once per destination), so this
    is the cheap way to deliver one message to n peers. *)

(** {1 Fault injection} *)

val crash : 'm t -> Node_id.t -> unit
(** The node stops sending and receiving until {!recover}.  Its handler
    stays registered; protocol state is untouched (a crashed replica whose
    host object is reused models a crash-recovery node with stable
    storage — to model amnesia, re-register a fresh node). *)

val recover : 'm t -> Node_id.t -> unit
val is_crashed : 'm t -> Node_id.t -> bool

val partition : 'm t -> Node_id.t list list -> unit
(** Install a partition: messages flow only within a group.  Nodes absent
    from every group can talk to nobody.  Replaces any previous
    partition. *)

val heal : 'm t -> unit
(** Remove any partition. *)

val set_link_fault : 'm t -> src:Node_id.t -> dst:Node_id.t -> drop:float -> unit
(** Per-directed-link extra drop probability (composed with the global
    one). *)

val clear_link_faults : 'm t -> unit

val set_drop : 'm t -> float -> unit
(** Reset the global loss probability mid-run.  Fault scripts (crucible)
    use this to open and close lossy weather windows; messages already in
    flight are unaffected. *)

val set_duplicate : 'm t -> float -> unit
(** Reset the duplication probability mid-run — a duplicate storm is
    [set_duplicate t 1.0] followed later by [set_duplicate t 0.0]. *)

(** {1 Accounting} *)

val counters : 'm t -> Rsmr_sim.Counters.t
(** The live ["net"] section view ({!Rsmr_obs.Registry.counters}).  Keys:
    "sent", "delivered", "dropped", "duplicated", "bytes_sent", and per
    tag "sent.<tag>" and "bytes.<tag>".  A tagged send bumps "sent" and
    exactly one "sent.<tag>" (bytes alike), so [sent = Σ sent.<tag>] and
    [bytes_sent = Σ bytes.<tag>] whenever every network counting into the
    registry has a [tagger], as Service's and Raft's do. *)

(** {1 Enumerate mode}

    Only meaningful when the network was created with
    [~mode:`Enumerate]; in [`Sim] mode the queues are always empty.
    Each directed link has one queue per class ([~bulk:true] is the bulk
    class).  Within a queue, messages are deliverable strictly in send
    order (the FIFO clamp): only the head is reachable, via
    {!deliver_head} (run the receive handler) or {!drop_head} (model
    message loss).  The two heads of a link are independent choices, so
    a control message can be delivered before an earlier bulk one, as
    the uplink lets it in [`Sim] mode. *)

val links : 'm t -> (Node_id.t * Node_id.t * bool) list
(** [(src, dst, bulk)] for every queue holding a message, sorted (control
    before bulk on a link) — a deterministic enumeration order for choice
    generation. *)

val queued : 'm t -> src:Node_id.t -> dst:Node_id.t -> bulk:bool -> 'm list
(** The queue, head (oldest) first.  Used for state fingerprinting;
    does not consume anything. *)

val pending_total : 'm t -> int
(** Total queued messages across all queues — the checker's in-flight
    bound. *)

val deliver_head :
  'm t -> src:Node_id.t -> dst:Node_id.t -> bulk:bool -> 'm option
(** Consume the head of the queue and deliver it, re-checking partition
    and crash at delivery time exactly like [`Sim] mode (the message is
    consumed either way).  [None] if the queue is empty. *)

val drop_head : 'm t -> src:Node_id.t -> dst:Node_id.t -> bulk:bool -> 'm option
(** Consume the head of the queue as a message-loss choice.  Returns the
    lost payload for trace rendering. *)
