"""Turn worker round records and spans into the benchmark's metrics.

End-to-end metrics come from untraced rounds only; per-layer metrics come
from the spans of traced rounds.  Counts and busy times are medians per
round, so they do not depend on how many rounds fit in a run.

The time metrics are given at reference speed.  On a shared host the
speed of the processor changes from second to second and drifts by up to
2x over an hour, so a time as run says more about the host than about the
code.  Each round therefore runs every op twice, back to back: once in the
library and once in a frozen copy of it taken when the benchmark was
defined (bench/ref).  Both see the host at the same speed.  A time metric
is the copy's own figure at full speed on the defining host, in
REFERENCE_FIGURES, times the ratio of the library's figure to the copy's
figure in this run.  A change to the library moves that ratio in full.
"""

from __future__ import annotations

import math
from statistics import median

TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("margin_digits", "digits"),
    ("peak_rss_mb", "MB"),
)

# Figures of the reference copy as run by this benchmark on a shared 2-core
# Intel Xeon VM (Python 3.11.7), each the median over five seeds.
REFERENCE_FIGURES = {
    "scheme": {"wall_s": 12.11, "op_p50_ms": 12110.0, "op_tail_ms": 12110.0},
    "classify": {"wall_s": 3.972, "op_p50_ms": 16.53, "op_tail_ms": 49.52},
    "verify": {"wall_s": 9.612, "op_p50_ms": 7.272, "op_tail_ms": 45.37},
}
REFERENCE_SETUP_S = 0.1151
# The metrics given at reference speed.
SPEED_METRICS = ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms")

LAYER_NAMES = ("qkernel", "exponents", "polytope", "biortho", "limits", "scheme", "cli")

PER_LAYER = (
    ("qkernel.calls", "count"),
    ("qkernel.busy_s", "s"),
    ("qkernel.fail", "count"),
    ("qkernel.elliptic_gamma.us", "us"),
    ("qkernel.theta.us", "us"),
    ("qkernel.qpoch_infinite.us", "us"),
    ("biortho.calls", "count"),
    ("biortho.busy_s", "s"),
    ("biortho.fail", "count"),
    ("biortho.continuous_inner_product.ms", "ms"),
    ("biortho.discrete_inner_product.ms", "ms"),
    ("biortho.rtilde.us", "us"),
    ("biortho.norm_formula.us", "us"),
    ("limits.calls", "count"),
    ("limits.busy_s", "s"),
    ("limits.fail", "count"),
    ("limits.pastro_inner_product.ms", "ms"),
    ("limits.apply_integral.ms", "ms"),
    ("limits.apply_series.ms", "ms"),
    ("limits.numeric_limit.ms", "ms"),
    ("exponents.calls", "count"),
    ("exponents.busy_s", "s"),
    ("exponents.fail", "count"),
    ("exponents.valuations.us", "us"),
    ("polytope.calls", "count"),
    ("polytope.busy_s", "s"),
    ("polytope.fail", "count"),
    ("polytope.reduce_to_P.us", "us"),
    ("polytope.reduce_to_P.word_len", "steps"),
    ("polytope.face_of.us", "us"),
    ("polytope.face_of.hit_ratio", "ratio"),
    ("polytope.is_z_dependent.us", "us"),
    ("polytope.is_system.us", "us"),
    ("polytope.face_name.us", "us"),
    ("polytope.system_share", "ratio"),
    ("scheme.busy_s", "s"),
    ("scheme.fail", "count"),
    ("scheme.build_scheme.cold_s", "s"),
    ("scheme.check_appendix.s", "s"),
    ("scheme.check_askey.s", "s"),
    ("scheme.emit.s", "s"),
    ("cli.calls", "count"),
    ("cli.busy_s", "s"),
    ("cli.fail", "count"),
    ("trace.overhead", "ratio"),
    ("trace.span_coverage", "ratio"),
)

# Span names pooled into one per-call median, where the metric name alone
# does not give the span name.
POOLED_SPANS = {
    "exponents.valuations": ("exponents.rtilde_valuation", "exponents.norm_valuation",
                             "exponents.valuation_deficit"),
}
EMIT_SPANS = ("scheme.emit_json", "scheme.emit_dot", "scheme.emit_tsv")
UNIT_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def tail_percentile(ops_per_round: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND ops of one round
    beyond it; the median when no percentile has that many."""
    best = 50
    for pct in TAIL_LADDER:
        if ops_per_round * (100 - pct) / 100 >= TAIL_BEYOND:
            best = pct
    return best


def nearest_rank(sorted_values, pct: float) -> float:
    idx = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


def end_to_end(workload: str, rounds, setup: tuple[float, float],
               rss_mb) -> tuple[dict, dict]:
    """(metric values, details printed next to them) from untraced rounds.

    `setup` is the set-up time as run of the library and of the copy."""
    live = [op[1] for r in rounds for op in r["ops"]]
    ref = [t for r in rounds for t in r["ref_latencies"]]
    per_round = len(rounds[0]["ops"])
    pct = tail_percentile(per_round)

    def tail(values):
        values = sorted(values)
        return median(values) if pct == 50 else nearest_rank(values, pct)

    as_run = {  # (library, reference copy)
        "setup_s": setup,
        "wall_s": (sum(live) / len(rounds), sum(ref) / len(rounds)),
        "op_p50_ms": (median(live) * 1e3, median(ref) * 1e3),
        "op_tail_ms": (tail(live) * 1e3, tail(ref) * 1e3),
    }
    figures = dict(REFERENCE_FIGURES[workload], setup_s=REFERENCE_SETUP_S)
    speed = {name: figures[name] * lib / copy for name, (lib, copy) in as_run.items()}
    ok = sum(1 for r in rounds for op in r["ops"] if op[2])
    margins = [min(op[3] for op in r["ops"]) for r in rounds]
    values = {
        "setup_s": speed["setup_s"],
        "wall_s": speed["wall_s"],
        "ops_per_s": ok / len(rounds) / speed["wall_s"],
        "op_p50_ms": speed["op_p50_ms"],
        "op_tail_ms": speed["op_tail_ms"],
        "ok_frac": ok / len(live),
        "margin_digits": median(margins),
        "peak_rss_mb": median(rss_mb),
    }
    details = {
        "rounds": len(rounds),
        "ops_per_round": per_round,
        "ops": len(live),
        "failed": len(live) - ok,
        "tail_percentile": pct,
        "as_run": as_run,
    }
    return values, details


def _speed_ratio(rounds) -> float:
    """Time in the library over time in the reference copy."""
    return sum(r["duration"] for r in rounds) / sum(sum(r["ref_latencies"]) for r in rounds)


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer(rounds, spans) -> dict:
    """Per-layer metrics from traced rounds and their spans.

    `spans` rows are [round, id, parent, op, name, start, end, error].
    A layer's busy time sums its outermost spans only, so a call made
    from inside another call of the same layer is not counted twice.
    """
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    by_round: dict[int, dict] = {}
    for row in spans:
        by_round.setdefault(row[0], {})[row[1]] = row
    durations: dict[str, list] = {}
    per_round = {layer: {"calls": [], "busy_s": [], "fail": []} for layer in LAYER_NAMES}
    emit_per_op: list[float] = []
    top_level = 0.0
    for r in traced:
        table = by_round.get(r["index"], {})
        counts = {layer: [0, 0.0, 0] for layer in LAYER_NAMES}
        emit: dict[int, float] = {}
        for _, sid, parent, op, name, start, end, error in table.values():
            layer = _layer_of(name)
            if layer == "op":
                continue
            dt = end - start
            durations.setdefault(name, []).append(dt)
            c = counts[layer]
            c[0] += 1
            c[2] += error is not None
            outermost = True
            anc = parent
            while anc is not None and _layer_of(table[anc][4]) != "op":
                if _layer_of(table[anc][4]) == layer:
                    outermost = False
                    break
                anc = table[anc][2]
            if outermost:
                c[1] += dt
            if parent is not None and _layer_of(table[parent][4]) == "op":
                top_level += dt
            if name in EMIT_SPANS:
                emit[op] = emit.get(op, 0.0) + dt
        for layer, (calls, busy, fail) in counts.items():
            per_round[layer]["calls"].append(calls)
            per_round[layer]["busy_s"].append(busy)
            per_round[layer]["fail"].append(fail)
        emit_per_op.extend(emit.values())

    stats_sum: dict[str, float] = {}
    for r in rounds:
        for key, val in r["stats"].items():
            stats_sum[key] = stats_sum.get(key, 0) + val

    def ratio(num, den):
        return stats_sum.get(num, 0) / stats_sum[den] if stats_sum.get(den) else 0.0

    def med(values):
        return median(values) if values else 0.0

    out = {}
    for name, unit in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest in ("calls", "busy_s", "fail"):
            out[name] = med(per_round[layer][rest])
        elif name == "polytope.reduce_to_P.word_len":
            out[name] = ratio("word_steps", "points")
        elif name == "polytope.face_of.hit_ratio":
            out[name] = ratio("tile_hits", "tiles_tested")
        elif name == "polytope.system_share":
            out[name] = ratio("systems", "points")
        elif name == "scheme.emit.s":
            out[name] = med(emit_per_op)
        elif name == "trace.overhead":
            # each against the reference copy, which is never traced
            out[name] = (_speed_ratio(traced) / _speed_ratio(plain) - 1
                         if traced and plain else 0.0)
        elif name == "trace.span_coverage":
            total = sum(r["duration"] for r in traced)
            out[name] = top_level / total if total else 0.0
        else:
            base = name.rsplit(".", 1)[0]  # drop the unit suffix: us, ms, s, cold_s
            pooled = [d for s in POOLED_SPANS.get(base, (base,)) for d in durations.get(s, [])]
            out[name] = med(pooled) * UNIT_SCALE[unit]
    return out
