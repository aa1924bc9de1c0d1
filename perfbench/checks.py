"""Output checks that do not use the program's own code.

Each check takes the stdout text of one op and returns a list of problems;
an empty list means the output is correct.  Laurent polynomials are read
from their JSON form ([[exponent, coefficient], ...]) into plain dicts, so
no check relies on qwebs.ring or on the invariant checks inside qwebs.
"""

from __future__ import annotations

import hashlib
import json


def poly(data) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, c in data:
        if type(e) is not int or type(c) is not int:
            raise ValueError(f"non-integer term {[e, c]}")
        if c:
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def bar(p: dict[int, int]) -> dict[int, int]:
    return {-e: c for e, c in p.items()}


def shift(p: dict[int, int], s: int) -> dict[int, int]:
    return {e + s: c for e, c in p.items()}


def add(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_cartan(text: str) -> list[str]:
    """Symmetric, nonnegative, bar(C_ST) = v^(-2d) C_TS, Frobenius passed."""
    payload = json.loads(text)
    labels = payload["cartan"]["labels"]
    rows = [[poly(p) for p in row] for row in payload["cartan"]["entries"]]
    g = payload["gorenstein_parameter"]
    n = len(labels)
    problems = []
    if n == 0 or len(rows) != n or any(len(row) != n for row in rows):
        return [f"Cartan matrix is not {n}x{n}"]
    total: dict[int, int] = {}
    for i in range(n):
        for j in range(n):
            c = rows[i][j]
            total = add(total, c)
            if c != rows[j][i]:
                problems.append(f"not symmetric at ({i},{j})")
            if any(v < 0 for v in c.values()):
                problems.append(f"negative coefficient at ({i},{j})")
            if bar(c) != shift(rows[j][i], -g):
                problems.append(f"graded duality fails at ({i},{j})")
        if not rows[i][i]:
            problems.append(f"zero diagonal entry at {i}")
    frob = payload["frobenius"]
    if frob["passed"] is not True:
        problems.append("Frobenius check did not pass")
    if poly(frob["total_dimension"]) != total:
        problems.append("total dimension is not the sum of the entries")
    return problems


def check_dual(text: str) -> list[str]:
    """Leading coefficient 1, others in v^-1 Z[v^-1], every beta bar-invariant."""
    payload = json.loads(text)
    problems = []
    if not payload:
        return ["empty dual canonical block"]
    for i, elem in enumerate(payload):
        lead = elem["tableau"]["rows"]
        seen_lead = False
        for term in elem["expansion"]["terms"]:
            c = poly(term["coeff"])
            if term["rows"] == lead:
                seen_lead = True
                if c != {0: 1}:
                    problems.append(f"element {i}: leading coefficient {c}")
            elif not c or max(c) >= 0:
                problems.append(f"element {i}: coefficient {c} not in v^-1 Z[v^-1]")
        if not seen_lead:
            problems.append(f"element {i}: no leading term")
        for b in elem["beta"]:
            g = poly(b["coeff"])
            if not g or bar(g) != g:
                problems.append(f"element {i}: correction {g} is not bar-invariant")
    return problems


def check_verify(text: str) -> list[str]:
    """Every report passed and made at least one check."""
    reports = json.loads(text)
    if not reports:
        return ["no verify reports"]
    problems = []
    for r in reports:
        if r["passed"] is not True or r["failures"]:
            problems.append(f"{r['name']}: failed")
        if not (type(r["cases"]) is int and r["cases"] > 0):
            problems.append(f"{r['name']}: vacuous pass with {r['cases']} checks")
    return problems


CHECKS = {"cartan": check_cartan, "dual": check_dual, "verify": check_verify}


def items(workload: str, text: str) -> int:
    """Results in one op's output: Cartan entries, dual elements or checks."""
    payload = json.loads(text)
    if workload == "cartan":
        return len(payload["cartan"]["labels"]) ** 2
    if workload == "dual":
        return len(payload)
    return sum(r["cases"] for r in payload)
