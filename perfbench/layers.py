"""Per-layer metrics of a traced run: calls and self time per function,
roll-ups, work ratios, bit growth, and the predictions made for each
workload before it was measured.

Every figure is per traced round.  The traced rounds repeat the same
operations, so a count divides exactly.  A self time in seconds is a
per-layer metric only for the functions every workload calls (a time that
is 0 on some workload would read the same on every run); each function's
self time, total time and share are always in the printed table and the
trace file.
"""
from __future__ import annotations

import statistics

from tracing import FUNCTIONS, OP, SpanIndex, qualified

SPANNED = [(layer, qualified(m, a)) for layer, m, a, kind in FUNCTIONS if kind == "span"]
COUNTED = [qualified(m, a) for _, m, a, kind in FUNCTIONS if kind == "count"]
LAYERS = ["poly", "algnum", "cf", "conjugates", "field", "cli"]

# Called on every workload, so their self time is never 0.
ALWAYS = ["poly.sturm_count", "poly.sturm_chain", "poly.moebius_transform",
          "poly.unimodular_transform", "algnum.floor_with_refined", "cf.expand"]

STURM = {"poly.sturm_count", "poly.sturm_chain"}
CONJUGATES = {name for layer, name in SPANNED if layer == "conjugates"}


def _expand_summary(e):
    bits = [s.bits for s in e.steps]
    half = len(bits) // 2
    return len(bits), bits[0], bits[half - 1], bits[-1]


# Span results kept for the ratios: depth and bit sizes of each expansion,
# and each Sturm count that did not return 1.
SUMMARIES = {"cf.expand": _expand_summary, "poly.sturm_count": lambda n: None if n == 1 else n}


def _share(part, whole) -> float:
    return 100 * part / whole if whole else 0.0


def metrics(tracer, workload, untraced, traced):
    idx = SpanIndex(tracer)
    rounds = len(traced)
    wall = sum(idx.dur[i] for i in idx.ids(OP))
    per_round = lambda ns: ns / rounds / 1e9  # noqa: E731
    m = {}
    table = {}
    for layer, name in SPANNED:
        total = idx.outer_total_ns({name})
        table[name] = {"calls": idx.calls[name] / rounds, "self_s": per_round(idx.self_ns[name]),
                       "total_s": per_round(total), "self_share": _share(idx.self_ns[name], wall)}
        m[f"{name}.calls"] = idx.calls[name] / rounds
        m[f"{name}.self_share"] = table[name]["self_share"]
    for name in COUNTED:
        table[name] = {"calls": tracer.counts[name] / rounds}
        m[f"{name}.calls"] = tracer.counts[name] / rounds
    for name in ALWAYS:
        m[f"{name}.self_s"] = table[name]["self_s"]

    layer_self = {layer: sum(idx.self_ns[n] for lay, n in SPANNED if lay == layer) for layer in LAYERS}
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = _share(layer_self[layer], wall)
    m["layer.bench.self_share"] = _share(idx.self_ns[OP], wall)

    rollups = {
        "sturm": STURM,
        "conjugates": CONJUGATES,
        "disc_product_enclosure": {"conjugates.disc_product_enclosure"},
        "cf_expand": {"cf.expand"},
        "rational_roots": {"poly.rational_roots"},
    }
    rollup_ns = {key: idx.outer_total_ns(names) for key, names in rollups.items()}
    m["rollup.sturm.total_s"] = per_round(rollup_ns["sturm"])
    for key, ns in rollup_ns.items():
        m[f"rollup.{key}.share"] = _share(ns, wall)

    expansions = [tracer.results[i] for i in idx.ids("cf.expand") if i in tracer.results]
    quotients = sum(e[0] for e in expansions)
    sturm_in_expand = idx.under("poly.sturm_count", {"cf.expand"})
    retries = sum(1 for i in sturm_in_expand if i in tracer.results)
    dpe_calls = idx.calls["conjugates.disc_product_enclosure"]
    restarts = len(idx.under("conjugates.conjugates", {"conjugates.disc_product_enclosure"}))
    main_ns = idx.outer_total_ns({"cli.main"})
    validation_ns = sum(idx.dur[i] for i in idx.under("algnum.make_algebraic", {"cli.main"})
                        if not idx.has_ancestor(i, {"algnum.make_algebraic"}))
    m["cf.sturm_per_step"] = len(sturm_in_expand) / quotients if quotients else 0.0
    m["cf.sturm_retry_share"] = _share(retries, len(sturm_in_expand))
    m["poly.sign_evals_per_step"] = tracer.counts["poly.IntPoly.sign_at"] / quotients if quotients else 0.0
    m["conjugates.restarts_per_step"] = restarts / dpe_calls if dpe_calls else 0.0
    m["cli.validation_share"] = _share(validation_ns, main_ns)

    deep = [e for e in expansions if e[0] >= 4]
    m["cf.bits_per_step"] = statistics.mean(e[3] / e[0] for e in deep) if deep else 0.0
    m["cf.bits_slope_first_half"] = (
        statistics.mean((e[2] - e[1]) / (e[0] // 2 - 1) for e in deep) if deep else 0.0)
    m["cf.bits_slope_second_half"] = (
        statistics.mean((e[3] - e[2]) / (e[0] - e[0] // 2) for e in deep) if deep else 0.0)

    m["tracing_overhead"] = 100 * (statistics.median(traced) / statistics.median(untraced) - 1)
    m["trace.round_s"] = per_round(wall)

    lines = [f"{rounds} traced and {len(untraced)} untraced rounds; traced wall {m['trace.round_s']:.4f} s "
             f"per round (base of every share below); tracing overhead {m['tracing_overhead']:.2f}%",
             f"{'function':<36} {'calls':>10} {'self_s':>10} {'total_s':>10} {'self%':>7}"]
    for name, row in table.items():
        if "self_s" in row:
            lines.append(f"{name:<36} {row['calls']:>10g} {row['self_s']:>10.4f} "
                         f"{row['total_s']:>10.4f} {row['self_share']:>7.2f}")
        else:
            lines.append(f"{name:<36} {row['calls']:>10g} {'(calls only)':>29}")
    lines.append(f"{'bench.op (harness, unlisted code)':<36} {'':>10} {per_round(idx.self_ns[OP]):>10.4f} "
                 f"{'':>10} {m['layer.bench.self_share']:>7.2f}")
    for key, ns in rollup_ns.items():
        lines.append(f"roll-up {key}: total_s {per_round(ns):.4f}, {m[f'rollup.{key}.share']:.2f}% of traced wall")
    per = lambda n: f"{n / rounds:g}"  # noqa: E731
    lines.append(
        f"ratios (counts per round): sturm_per_step {m['cf.sturm_per_step']:.4f} "
        f"({per(len(sturm_in_expand))} calls / {per(quotients)} quotients), "
        f"sturm_retry_share {m['cf.sturm_retry_share']:.2f}% ({per(retries)} / {per(len(sturm_in_expand))}), "
        f"sign_evals_per_step {m['poly.sign_evals_per_step']:.2f} "
        f"({per(tracer.counts['poly.IntPoly.sign_at'])} / {per(quotients)}), "
        f"restarts_per_step {m['conjugates.restarts_per_step']:.3f} ({per(restarts)} / {per(dpe_calls)}), "
        f"validation_share {m['cli.validation_share']:.2f}% of cli.main time")
    lines.append(f"bits: {m['cf.bits_per_step']:.4f} per step, slope {m['cf.bits_slope_first_half']:.4f} "
                 f"(first half), {m['cf.bits_slope_second_half']:.4f} (second half)")
    lines.extend(predictions(workload, m, layer_self, idx, wall))
    return m, lines, table


def predictions(workload, m, layer_self, idx, wall):
    """The predictions for this workload, each confirmed or corrected."""
    checks = {
        "expand-deep": [
            ("sturm_* share of wall time", m["rollup.sturm.share"], "about 68%", lambda v: abs(v - 68) <= 10),
            ("conjugates.* share of wall time", m["rollup.conjugates.share"], "0%", lambda v: v == 0),
        ],
        "verify-certify": [
            ("disc_product_enclosure share of wall time", m["rollup.disc_product_enclosure.share"],
             "more than 90%", lambda v: v > 90),
            ("cf.expand share of wall time", m["rollup.cf_expand.share"], "under 5%", lambda v: v < 5),
        ],
    }.get(workload, [])
    if workload == "request-stream":
        shares = dict(layer_self)
        shares["poly"] -= idx.self_ns["poly.rational_roots"]
        top = max(shares, key=shares.get)
        checks.append((f"largest layer self share without rational_roots ({top})",
                       _share(shares[top], wall), "at most 50%", lambda v: v <= 50))
    out = []
    for what, value, predicted, holds in checks:
        verdict = "confirmed" if holds(value) else "corrected"
        out.append(f"prediction {workload}: {what}: predicted {predicted}, measured {value:.2f}% "
                   f"of {m['trace.round_s']:.4f} s traced wall per round -> {verdict}")
    return out
