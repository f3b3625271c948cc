"""Output checks against the workload generators' cleartext references.

Every comparator returns ``None`` when the query output matches and a
one-line description of the first difference otherwise.  MPC backends
return rows in randomised order, so outputs are compared as keyed maps.

Fixed-point tolerance: MPC arithmetic on fractional values is fixed point
with :data:`FIXED_POINT_SCALE` steps per unit, and each division or
truncating multiplication may be off by one step.  The HHI and average
score outputs go through at most three such steps per value, so a value
matches when it is within ``FIXED_POINT_TOLERANCE`` (ten steps) of the
reference.  Counts are integers and must match exactly.
"""

from __future__ import annotations

from repro.mpc.protocols import FIXED_POINT_SCALE

FIXED_POINT_TOLERANCE = 10 / FIXED_POINT_SCALE


def check_hhi(output, reference: float) -> str | None:
    """The HHI query's single ``hhi`` value against ``reference_hhi``."""
    rows = output.rows()
    if len(rows) != 1:
        return f"hhi: expected one row, got {len(rows)}"
    got = float(rows[0][output.schema.names.index("hhi")])
    if abs(got - reference) > FIXED_POINT_TOLERANCE:
        return f"hhi: got {got!r}, reference {reference!r}"
    return None


def check_average_scores(output, reference) -> str | None:
    """Average score per ZIP code against ``reference_average_scores``."""
    got = _keyed(output, "zip", "avg_score")
    want = _keyed(reference, "zip", "avg_score")
    if got.keys() != want.keys():
        missing = sorted(want.keys() - got.keys())[:5]
        extra = sorted(got.keys() - want.keys())[:5]
        return f"avg_scores: ZIP codes differ (missing {missing}, extra {extra})"
    for zip_code in sorted(want):
        if abs(got[zip_code] - want[zip_code]) > FIXED_POINT_TOLERANCE:
            return (
                f"avg_scores: zip {zip_code} got {got[zip_code]!r}, "
                f"reference {want[zip_code]!r}"
            )
    return None


def check_count(output, column: str, reference: int) -> str | None:
    """A single-row count (aspirin count) against its exact reference."""
    rows = output.rows()
    if len(rows) != 1:
        return f"{column}: expected one row, got {len(rows)}"
    got = int(rows[0][output.schema.names.index(column)])
    if got != reference:
        return f"{column}: got {got}, reference {reference}"
    return None


def check_top_k(output, all_counts, top_k: int, key: str, count: str) -> str | None:
    """A top-``k`` by count against the full count table ``all_counts``.

    Ties at the cut may be broken either way: the output must hold ``k``
    distinct keys (or every key, if there are fewer), each with its true
    count, every key whose count beats the ``k``-th largest count, and
    only keys whose count reaches it.
    """
    truth = _keyed(all_counts, key, count)
    got = _keyed(output, key, count)
    expected_size = min(top_k, len(truth))
    if len(output.rows()) != expected_size or len(got) != expected_size:
        return f"top-{top_k}: got {len(output.rows())} rows, expected {expected_size}"
    for k, c in got.items():
        if truth.get(k) != c:
            return f"top-{top_k}: key {k} has count {c}, true count {truth.get(k)}"
    if not truth:
        return None
    cut = sorted(truth.values(), reverse=True)[expected_size - 1]
    for k, c in truth.items():
        if c > cut and k not in got:
            return f"top-{top_k}: key {k} with count {c} above the cut {cut} is missing"
    low = [k for k, c in got.items() if c < cut]
    if low:
        return f"top-{top_k}: key {low[0]} is below the cut {cut}"
    return None


def _keyed(table, key: str, value: str) -> dict:
    names = table.schema.names
    k, v = names.index(key), names.index(value)
    out = {}
    for row in table.rows():
        out[row[k]] = row[v]
    return out
