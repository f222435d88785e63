(** Aggregation and rendering behind the [fg top] live dashboard.

    A {!t} consumes the telemetry event stream (the same JSONL events
    the sinks carry — typically tailed from a [--trace] file while an
    [attack]/[simulate] run is writing it) and maintains:

    - per-span-name {!Hdr} histograms of durations, for the
      phase-latency quantile table;
    - sliding-window timestamps of heal events ([fg.delete] span ends,
      one per [delete] or [delete_batch]) and delta points ([fg.delta]),
      for heals/sec and deltas/sec;
    - the latest [fg.stat] point's attributes (degree bound, stretch
      sample, GC counters), published by [fg_cli attack
      --metrics-every].

    Rates are computed over a trailing window of stream time (event
    timestamps, not wall time), so replaying a finished trace shows the
    rates the run actually had. {!render} produces one full frame; with
    [~ansi:true] it is prefixed with a home-and-clear escape so
    repeated frames redraw in place — plain output is used by tests and
    [--plain]. *)

type t

val create : ?window:float -> unit -> t

val feed : t -> Event.t -> unit

(** Events consumed so far. *)
val events_seen : t -> int

(** Heals (resp. deltas) per second over the trailing window. *)
val heal_rate : t -> float

val delta_rate : t -> float

val render : ?ansi:bool -> t -> string
