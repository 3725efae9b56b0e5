(** Reproduction harnesses: one function per table/figure of the
    paper's evaluation (§3, §6 and appendix D).  Each prints the
    figure's rows/series to stdout; [bench/main.exe] drives them all.

    The [profile] controls instance sizes so a default run finishes on
    a laptop; [full] matches the paper's scope (all 20 topologies). *)

type profile = {
  topos : string list;  (** topologies for the cross-topology figures *)
  rich_topos : string list;  (** for the split-sub-link study (Fig 12) *)
  ip_topos : string list;  (** where the exact IP is attempted (Figs 14/15) *)
  max_scenarios : int;
  max_pairs : int;
  emu_runs : int;
  cvar_scenarios : int;  (** scenario cap for the CVaR family *)
  ip_node_limit : int;
      (** node budget of the exact IP timed in Fig 15 (Fig 14's IP
          always gets {!Flexile_te.Ip_direct.solve}'s default 2000) *)
  jobs : int;
      (** worker domains for every scheme's scenario sweep (0 = auto,
          see {!Flexile_te.Scenario_engine}) *)
}

val quick : profile
(** Small/medium topologies, suitable for a default bench run. *)

val full : profile
(** All 20 topologies.  Hours of compute; CVaR/IP still guarded. *)

val motivation : unit -> unit
(** Figs 1-4 + Proposition 2: the triangle example. *)

val fig5 : profile -> unit
(** CDF of 99.9%ile flow loss on IBM: Teavar vs ScenBest vs Flexile. *)

val fig6 : profile -> unit
(** CDF of per-scenario loss penalty vs ScenBest on IBM. *)

val fig9 : profile -> unit
(** Emulation: (a) Flexile vs SWAN two-class, (b) vs SMORE/Teavar
    single-class, (c) emulation-vs-model discretization gap. *)

val fig10 : profile -> unit
(** Low-priority PercLoss across topologies: Flexile vs SWAN variants. *)

val fig11 : profile -> unit
(** PercLoss across topologies: Teavar, Cvar-Flow-St/Ad, Flexile. *)

val fig12 : profile -> unit
(** Richly connected topologies: Teavar vs SMORE vs Flexile. *)

val fig13 : profile -> unit
(** Per-scenario worst-flow loss CDFs, Sprint, two classes. *)

val fig14 : profile -> unit
(** Optimality gap after each decomposition iteration. *)

val fig15 : profile -> unit
(** Offline solving time: Flexile vs the exact IP, by topology size. *)

val fig18 : profile -> unit
(** Max sustainable low-priority scale: Flexile vs SWAN-Maxmin. *)

val table2 : unit -> unit
(** The topology inventory. *)

val scenloss : profile -> unit
(** §6.3: ScenLoss comparisons and the gamma-bounded variant. *)

val ablation : profile -> unit
(** Ablation of the §4.2 accelerations (warm starts, pruning, cut
    sharing, Hamming stabilization): wall time, subproblem count and
    achieved penalty. *)
