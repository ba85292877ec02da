(** Congestion-avoidance algorithms, pluggable per connection.

    Windows are floats in bytes. Each algorithm owns the additive-
    increase step during congestion avoidance and the multiplicative-
    decrease applied on loss events; the sender drives everything else
    (slow-start is a separate policy, see {!Slow_start}). *)

type t = {
  name : string;
  on_ack :
    newly_acked:int -> cwnd:float -> mss:int -> srtt:Sim.Time.t option ->
    min_rtt:Sim.Time.t option -> now:Sim.Time.t -> float;
      (** new cwnd after an ACK of new data while in congestion
          avoidance *)
  on_acks :
    acks:int -> newly_acked:int -> mss:int -> srtt:Sim.Time.t option ->
    min_rtt:Sim.Time.t option -> now:Sim.Time.t -> float array -> int ->
    unit;
      (** [on_acks ~acks ... cwnd i] applies the per-ACK rule [acks]
          times in order to the window in [cwnd.(i)], in place —
          bit-identical to [acks] successive {!on_ack} calls. The window
          stays in a flat float array (a {!Flow_table} column), so no
          float crosses the closure boundary boxed; Reno's batch
          allocates nothing. *)
  on_loss : cwnd:float -> flight:int -> mss:int -> now:Sim.Time.t ->
    float * float;
      (** (ssthresh, cwnd) after a fast-retransmit loss event *)
  on_loss_at :
    flight:int -> mss:int -> now:Sim.Time.t -> cwnd:float array ->
    ssthresh:float array -> int -> unit;
      (** {!on_loss} applied in place to [cwnd.(i)] and [ssthresh.(i)];
          allocation-free for Reno and Relentless *)
  on_rto : cwnd:float -> flight:int -> mss:int -> float * float;
      (** (ssthresh, cwnd) after a retransmission timeout *)
  reset : unit -> unit;  (** clear epoch state (new connection reuse) *)
}

val reno : unit -> t
(** AIMD: +MSS per RTT (MSS²/cwnd per ACK), halve on loss. *)

val cubic : ?c:float -> ?beta:float -> unit -> t
(** RFC 8312 CUBIC: window follows C·(t−K)³ + Wmax with β=0.7 decrease
    and a TCP-friendly (Reno-tracking) lower bound. *)

val relentless : unit -> t
(** Relentless congestion control (Mathis, arXiv 1102.3270): Reno's
    additive increase, but a loss event reduces the window by one MSS
    (the lost segment) instead of halving, with ssthresh pinned to the
    reduced window. Steady state under per-segment loss probability [p]
    sits at W* ≈ 1/p segments (throughput ≈ MSS/(p·RTT)) — the
    analytical model the oracle tests check. RTO reaction is Reno's. *)

val small_rtt : ?ref_rtt:Sim.Time.t -> unit -> t
(** Small-RTT cwnd scaling (Briscoe & De Schepper, arXiv 1904.07598):
    Reno, but below [ref_rtt] (default 25 ms) the additive increase is
    scaled by [srtt/ref_rtt], so rate acceleration is RTT-independent
    and short-RTT flows stop starving long-RTT competitors at a shared
    bottleneck. Identical to Reno at or above [ref_rtt]; decrease rules
    are Reno's. *)

val fast : ?alpha_seg:float -> ?gamma:float -> unit -> t
(** FAST-style delay-based avoidance (Wei & Low): once per RTT,
    [w ← (1−γ)·w + γ·(base_rtt/avg_rtt·w + α)] with [avg_rtt] a
    γ-smoothed average (default γ=0.5) and [alpha_seg] (default 16) the
    target queued backlog in segments; the per-update move is capped at
    window doubling. Equilibrium parks exactly α segments in the path's
    queues. Falls back to Reno's increase until RTT estimates exist;
    loss reactions are Reno's. *)

val vegas : ?alpha:float -> ?beta_seg:float -> unit -> t
(** Vegas (Brakmo & Peterson): once per RTT estimate the backlog
    [cwnd·(rtt − base_rtt)/rtt] in segments; grow by one MSS below
    [alpha] (default 2), shrink by one above [beta_seg] (default 4),
    hold in between. Falls back to Reno's increase until RTT estimates
    exist. Loss reactions are Reno's. *)
