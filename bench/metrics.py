"""Pure metric computations over spans, counts and per-repetition samples.

Nothing here starts a process or reads a file, so the tests can feed it
fake spans and rusage values.
"""

from __future__ import annotations

import statistics

# Span record layout, as written by tracer.Tracer.
ID, NAME, START, END, PARENT, SCENARIO, THREAD, ERROR = range(8)


def median(values):
    return statistics.median(values) if values else 0.0


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it covered by its child spans.

    Children may overlap (pool workers), so the covered part is the union of
    their intervals, not the sum of their durations.
    """
    children = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - _covered(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


def layer_totals(spans):
    """Span name -> {"s": summed duration, "self_s": summed self time, "calls"}."""
    own = self_times(spans)
    out = {}
    for span in spans:
        entry = out.setdefault(span[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += span[END] - span[START]
        entry["self_s"] += own[span[ID]]
        entry["calls"] += 1
    return out


def repeat_share(calls):
    """Share of calls whose input key already occurred earlier for the same
    function: the hit rate an exact-input memo could reach at best."""
    seen = set()
    repeats = 0
    for function, key in calls:
        if (function, key) in seen:
            repeats += 1
        seen.add((function, key))
    return repeats / len(calls) if calls else 0.0


def sweep_stats(spans, serial_s, sweep_name="scenario.sweep",
                point_name="scenario.run_scenario"):
    """Sweep wall, serial baseline, speed-up and concurrency of one sweep.

    speedup = serial_s / sweep wall; concurrency = summed point time /
    sweep wall; points_failed counts points whose call raised.
    """
    sweeps = [s for s in spans if s[NAME] == sweep_name]
    if not sweeps:
        return {"s": 0.0, "serial_s": serial_s or 0.0, "speedup": 0.0,
                "concurrency": 0.0, "points_failed": 0}
    ids = {s[ID] for s in sweeps}
    wall = sum(s[END] - s[START] for s in sweeps)
    points = [s for s in spans if s[NAME] == point_name and s[PARENT] in ids]
    busy = sum(s[END] - s[START] for s in points)
    return {
        "s": wall,
        "serial_s": serial_s or 0.0,
        "speedup": serial_s / wall if serial_s else 0.0,
        "concurrency": busy / wall,
        "points_failed": sum(1 for s in points if s[ERROR]),
    }


def coverage(spans, wall_s):
    """Summed self time of all spans as a share of a traced wall time."""
    return sum(self_times(spans).values()) / wall_s if wall_s > 0 else 0.0


def failed_frac(failed, attempted):
    return failed / attempted if attempted else 1.0


def steps_from_outputs(last_t, dt):
    """Integrator steps implied by the last sample time and the resolved dt."""
    return int(round(last_t / dt))


def peak_rss_mb(ru_maxrss_kb):
    """rusage ru_maxrss is in KiB on Linux."""
    return ru_maxrss_kb / 1024.0
