"""Output checks: reference digests for fixed inputs, invariants for seeded ones.

A digest keeps a CSV's comment lines, header, row count, per-column sums
and either every row (up to ``FULL_ROWS``) or ``SAMPLE_ROWS`` evenly spaced
rows.  Numbers match when ``|x - ref| <= RTOL*|ref| + ATOL*max(1, scale)``,
with ``scale`` the column's largest reference magnitude; words and flags
must match exactly.  The ``seconds`` column of ``verify.csv`` is skipped
because it is wall-clock time.
"""

from __future__ import annotations

import math
import re

RTOL = 1e-6
ATOL = 1e-9
FULL_ROWS = 200
SAMPLE_ROWS = 60
SKIP_COLUMNS = {"verify.csv": {"seconds"}}  # not stored in digests
# Numbers printed in text (verify's measured column, kodaira's stdout) are
# rounded to a few digits; below PRINTED_NOISE they are round-off.
PRINTED_RTOL = 1e-2
PRINTED_NOISE = 1e-6
SLOPE_RTOL = 0.05  # |c_fit - v^T M^+ v| <= 5% max(|pred|, 0.01), as criterion 11
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


class CheckError(Exception):
    """An output differs from its reference or breaks an invariant."""


def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> dict:
    lines = text.rstrip("\n").split("\n")
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [[_value(v) for v in ln.split(",")] for ln in body[1:]]
    return {"comments": comments, "header": header, "rows": rows}


def comment_values(comments: list[str]) -> dict:
    """``key=value`` comment lines after the tool/hash line, parsed."""
    out = {}
    for c in comments[1:]:
        key, _, value = c.partition("=")
        out[key] = _value(value)
    return out


def column(table: dict, name: str) -> list:
    j = table["header"].index(name)
    return [row[j] for row in table["rows"]]


def digest(text: str, filename: str) -> dict:
    table = parse_csv(text)
    skip = [j for j, name in enumerate(table["header"])
            if name in SKIP_COLUMNS.get(filename, ())]
    rows = [[None if j in skip else v for j, v in enumerate(r)] for r in table["rows"]]
    n = len(rows)
    if n <= FULL_ROWS:
        keep = list(range(n))
    else:
        keep = sorted({round(i * (n - 1) / (SAMPLE_ROWS - 1)) for i in range(SAMPLE_ROWS)})
    sums, scales = [], []
    for j in range(len(table["header"])):
        nums = [r[j] for r in rows if isinstance(r[j], float)]
        sums.append(math.fsum(nums) if n and len(nums) == n else None)
        scales.append(max((abs(x) for x in nums), default=0.0))
    return {"comments": table["comments"], "header": table["header"], "nrows": n,
            "rows": {str(i): rows[i] for i in keep}, "sums": sums, "scales": scales}


def _close(x, ref, scale=0.0) -> bool:
    if isinstance(ref, float) and isinstance(x, float):
        if math.isnan(ref):
            return math.isnan(x)
        return abs(x - ref) <= RTOL * abs(ref) + ATOL * max(1.0, scale)
    return x == ref


def compare(text: str, ref: dict, filename: str):
    """Raise CheckError where ``text`` departs from its reference digest."""
    table = parse_csv(text)
    if filename == "verify.csv":
        return _compare_verify(table, ref)
    if table["header"] != ref["header"] or len(table["rows"]) != ref["nrows"]:
        raise CheckError(f"{filename}: header or row count differs from reference")
    cols = range(len(ref["header"]))
    got, want = comment_values(table["comments"]), comment_values(ref["comments"])
    if table["comments"][0] != ref["comments"][0] or set(got) != set(want):
        raise CheckError(f"{filename}: comment lines differ from reference")
    for key, value in want.items():
        if not _close(got[key], value):
            raise CheckError(f"{filename}: {key}={got[key]!r}, reference {value!r}")
    for i, ref_row in ref["rows"].items():
        row = table["rows"][int(i)]
        for j in cols:
            if not _close(row[j], ref_row[j], ref["scales"][j]):
                raise CheckError(f"{filename}: row {i} column {table['header'][j]} "
                                 f"is {row[j]!r}, reference {ref_row[j]!r}")
    for j in cols:
        if ref["sums"][j] is None:
            continue
        total = math.fsum(r[j] for r in table["rows"])
        tol = RTOL * ref["nrows"] * ref["scales"][j] + ATOL * ref["nrows"] * max(1.0, ref["scales"][j])
        if abs(total - ref["sums"][j]) > tol:
            raise CheckError(f"{filename}: column {table['header'][j]} sums to "
                             f"{total!r}, reference {ref['sums'][j]!r}")


def compare_text(text: str, ref: str):
    """Same words and the same numbers, to the precision they are printed at."""
    if _NUMBER.sub("#", text) != _NUMBER.sub("#", ref):
        raise CheckError(f"{text[:80]!r} differs from reference {ref[:80]!r}")
    for x, r in zip(map(float, _NUMBER.findall(text)), map(float, _NUMBER.findall(ref))):
        if not (abs(x) < PRINTED_NOISE if abs(r) < PRINTED_NOISE
                else abs(x - r) <= PRINTED_RTOL * abs(r)):
            raise CheckError(f"printed {x!r}, reference {r!r}")


def _compare_verify(table: dict, ref: dict):
    passed = column(table, "passed")
    if passed != ["true"] * 16:
        raise CheckError(f"verify: {passed.count('true')}/{len(passed)} PASS, expected 16/16")
    measured = column(table, "measured")
    j = ref["header"].index("measured")
    for i, ref_row in ref["rows"].items():
        compare_text(measured[int(i)], ref_row[j])


# -- invariants of the paper, for seed-generated inputs ----------------------

def collapsing_count(low_L: list[float], high_L: list[float], L_ratio: float) -> int:
    """Number of leading positive eigenvalues that scale like 1/L.

    ``low_L``/``high_L`` are the sorted positive eigenvalues times L at the
    smallest and largest L of a sweep.  A collapsing eigenvalue keeps
    lambda*L within 20%; a bounded one multiplies it by about ``L_ratio``.
    """
    count = 0
    for a, b in zip(low_L, high_L):
        ratio = b / a
        if abs(ratio - 1.0) <= 0.2:
            count += 1
        elif ratio >= 0.5 * L_ratio:
            break
        else:
            raise CheckError(f"eigenvalue neither collapses nor stays bounded: "
                             f"lambda*L ratio {ratio:.3f} over L ratio {L_ratio:.3f}")
    return count


def check_collapsing(table: dict, n_components: int):
    """Exactly N-1 positive eigenvalues collapse like 1/L across the sweep."""
    by_L: dict[float, list[float]] = {}
    for row in table["rows"]:
        rec = dict(zip(table["header"], row))
        if rec["lambda"] > 1e-8:
            by_L.setdefault(rec["L"], []).append(rec["lambda_times_L"])
    lo, hi = min(by_L), max(by_L)
    count = collapsing_count(sorted(by_L[lo]), sorted(by_L[hi]), hi / lo)
    if count != n_components - 1:
        raise CheckError(f"{count} collapsing eigenvalues, expected {n_components - 1}")


def check_slope(c_fit: float, predicted: float):
    """The fitted log slope matches v^T M^+ v (the paper's slope law)."""
    if abs(c_fit - predicted) > SLOPE_RTOL * max(abs(predicted), 0.01):
        raise CheckError(f"c_fit={c_fit!r} against v^T M^+ v={predicted!r}")


def check_finite(table: dict):
    for row in table["rows"]:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise CheckError("non-finite value in output")
