(** Seed → scenario, for the three families [rsmr crucible] soaks:
    [default] ({!scenario}), [reconf_churn] ({!reconf_churn_scenario})
    and [dir_churn] ({!dir_churn_scenario}, with {!storm_scenario}).

    Every structural choice — cluster size, universe, client count,
    workload window, and the fault script (crash/recover pairs,
    partitions and heals, directed-link faults, duplicate storms, loss
    weather, reconfiguration churn including back-to-back submissions) —
    is drawn from a {!Rsmr_sim.Rng} seeded by the scenario seed, so the
    same seed always yields the same scenario.

    Destructive events are paired with their cure inside the run
    (crash/recover, partition/heal, storm/calm) but nothing here
    guarantees a healthy endgame — the {!Runner} restores full service
    after the workload window regardless of what the script left broken,
    so every scenario eventually quiesces. *)

val scenario : seed:int -> Scenario.t

val reconf_churn_scenario : seed:int -> Scenario.t
(** Like {!scenario} but every event slot is a membership change (3–6 per
    run, roughly half with a back-to-back chaser inside the install
    window) plus at most one crash or loss spell — the family the
    per-strategy reconfiguration soak runs over. *)

val dir_churn_scenario : quick:bool -> seed:int -> Scenario.t
(** The platform (two shards of three over six machines, the directory
    on three) under one-at-a-time machine crashes, one or two directory
    isolations and one or two cross-shard rebalances, for 5.8 s (2.8 s
    when [quick]). *)

val storm_scenario : quick:bool -> Scenario.t
(** The redirect-storm regression, seed 424: both shards rebalanced
    under a directory blackout. *)
