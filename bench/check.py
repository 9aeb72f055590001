"""Output checker for the benchmark, independent of degbal's own checks.

Every rule is taken from the paper, not from the package: a result is
judged by recounting vertex degrees from the returned edges against host
edges the benchmark holds itself.  Profiles are (n3, n2, n1, n0) for cubic
hosts and (n2, n1, n0) for 2-regular ones, highest degree first.

    python3 bench/check.py    # self-test: mutated results must be rejected
"""

from __future__ import annotations

import json
from fractions import Fraction

# Statement targets for n = 4t (I, II) and n = 4t + 2 (III, IV).
_TARGETS = {
    "I": (0, lambda t: (t, t, t, t)),
    "II": (0, lambda t: (t - 1, t - 1, t + 1, t + 1)),
    "III": (2, lambda t: (t, t + 1, t, t + 1)),
    "IV": (2, lambda t: (t - 1, t, t + 1, t + 2)),
}

# Exact best deviations of the three balanced exceptions.
_EXCEPTION_DEVIATION = {"K4": Fraction(1), "K33": Fraction(3, 2), "3K4": Fraction(1)}


def statement_target(n: int, statement: str) -> tuple[int, ...] | None:
    residue, tuple_of = _TARGETS[statement]
    if n % 4 != residue:
        return None
    return tuple_of(n // 4)


def profile(n: int, degree: int, sub_edges) -> tuple[int, ...]:
    deg = [0] * n
    for u, v in sub_edges:
        deg[u] += 1
        deg[v] += 1
    counts = [0] * (degree + 1)
    for d in deg:
        counts[d] += 1
    return tuple(reversed(counts))


def deviation(counts: tuple[int, ...]) -> Fraction:
    center = Fraction(sum(counts), len(counts))
    return max(abs(c - center) for c in counts)


def components(n: int, edges) -> list[list[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def balanced_exception(n: int, edges) -> str | None:
    """'K4', 'K33' or '3K4' when the cubic host is one of them, else None."""
    comps = components(n, edges)
    if all(len(c) == 4 for c in comps) and len(comps) in (1, 3):
        return "K4" if len(comps) == 1 else "3K4"
    if len(comps) == 1 and n == 6 and not _has_triangle(edges):
        return "K33"
    return None


def _has_triangle(edges) -> bool:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return any(adj[u] & adj[v] for u, v in edges)


def host_problems(n: int, host_edges, degree: int) -> list[str]:
    """The host must be simple and degree-regular."""
    problems = []
    seen = set()
    deg = [0] * n
    for u, v in host_edges:
        if not (0 <= u < v < n) or (u, v) in seen:
            problems.append(f"host edge {(u, v)} is a loop, out of range or repeated")
        seen.add((u, v))
        deg[u] += 1
        deg[v] += 1
    if any(d != degree for d in deg):
        problems.append(f"host is not {degree}-regular")
    return problems


def decomposition_problems(
    n: int,
    host_edges,
    sub_edges,
    statement: str,
    reported_achieved=None,
    reported_target=None,
    reported_deviation=None,
) -> list[str]:
    """Problems of one decomposition result; an empty list means correct.

    statement is I, II, III, IV, BALANCED or TWO_REGULAR.  The reported_*
    values, when given, must agree with what the checker recomputes.
    """
    degree = 2 if statement == "TWO_REGULAR" else 3
    problems = host_problems(n, host_edges, degree)
    host = set(host_edges)
    seen = set()
    for u, v in sub_edges:
        e = (min(u, v), max(u, v))
        if e not in host:
            problems.append(f"returned edge {e} is not a host edge")
        elif e in seen:
            problems.append(f"returned edge {e} appears twice")
        seen.add(e)
    if problems:
        return problems
    counts = profile(n, degree, seen)
    dev = deviation(counts)

    if statement in _TARGETS:
        target = statement_target(n, statement)
        if counts != target:
            problems.append(f"statement {statement} on n={n}: profile {counts}, target {target}")
    elif statement == "BALANCED":
        kind = balanced_exception(n, host_edges)
        if kind is not None:
            if dev != _EXCEPTION_DEVIATION[kind]:
                problems.append(f"{kind}: deviation {dev}, best is {_EXCEPTION_DEVIATION[kind]}")
        elif dev > Fraction(1, 2):
            problems.append(f"balanced on n={n}: profile {counts} deviates {dev} > 1/2")
    elif statement == "TWO_REGULAR":
        third = Fraction(n, 3)
        bound = Fraction(1) if third.denominator == 1 and third.numerator % 2 else Fraction(2, 3)
        if dev > bound:
            problems.append(f"2-regular on n={n}: profile {counts} deviates {dev} > {bound}")
    else:
        problems.append(f"unknown statement {statement!r}")

    if reported_achieved is not None and tuple(reported_achieved) != counts:
        problems.append(f"reported profile {tuple(reported_achieved)}, recounted {counts}")
    if reported_target is not None and statement in _TARGETS:
        if tuple(reported_target) != statement_target(n, statement):
            problems.append(f"reported target {tuple(reported_target)} is not statement {statement}'s")
    if reported_deviation is not None and Fraction(reported_deviation) != dev:
        problems.append(f"reported deviation {reported_deviation}, recounted {dev}")
    return problems


def subset_edges(sorted_host_edges, bits: int) -> list[tuple[int, int]]:
    """Edges of a subset given as a bitmask over the sorted host edge list."""
    if bits < 0 or bits >> len(sorted_host_edges):
        raise ValueError("bitmask has bits beyond the host's edges")
    return [e for i, e in enumerate(sorted_host_edges) if bits >> i & 1]


def document_problems(record: str, text: str) -> list[str]:
    """Check one JSON result document printed by `degbal decompose` (balanced).

    The host comes from networkx's graph6 reader, not from degbal's.
    """
    import networkx as nx

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not one JSON document: {exc}"]
    host = nx.from_graph6_bytes(record.encode("ascii"))
    n = host.number_of_nodes()
    host_edges = sorted((min(u, v), max(u, v)) for u, v in host.edges())
    problems = []
    if doc.get("n") != n:
        problems.append(f"document n={doc.get('n')}, record has n={n}")
    if doc.get("statement") != "BALANCED":
        problems.append(f"document statement {doc.get('statement')!r}, asked for BALANCED")
    if problems:
        return problems
    return decomposition_problems(
        n,
        host_edges,
        [tuple(e) for e in doc["subgraph_edges"]],
        "BALANCED",
        reported_achieved=doc["achieved_profile"],
        reported_target=doc["target_profile"],
        reported_deviation=Fraction(doc["max_deviation"]),
    )


def theorem_min_deviation(n: int, host_edges) -> Fraction:
    """Best achievable max deviation of a cubic host, as the paper proves it."""
    kind = balanced_exception(n, host_edges)
    if kind is not None:
        return _EXCEPTION_DEVIATION[kind]
    return Fraction(0) if n % 4 == 0 else Fraction(1, 2)


def enumerate_profiles(n: int, sorted_host_edges) -> dict[tuple[int, ...], int]:
    """Plain enumeration: each achievable profile and its first subset in rank order."""
    incidence = [0] * n
    for i, (u, v) in enumerate(sorted_host_edges):
        incidence[u] |= 1 << i
        incidence[v] |= 1 << i
    first: dict[tuple[int, ...], int] = {}
    for bits in range(1 << len(sorted_host_edges)):
        counts = [0, 0, 0, 0]
        for inc in incidence:
            counts[3 - (bits & inc).bit_count()] += 1
        key = tuple(counts)
        if key not in first:
            first[key] = bits
    return first


def report_problems(
    n: int,
    sorted_host_edges,
    achievable,
    witness_bits: dict,
    min_deviation: Fraction,
    enumerate_up_to: int = 15,
) -> list[str]:
    """Check an exhaustive achievability report of a cubic host.

    achievable is a list of profiles; witness_bits maps each to a bitmask.
    """
    problems = host_problems(n, sorted_host_edges, 3)
    profiles = {tuple(p) for p in achievable}
    for p in profiles:
        if profile(n, 3, subset_edges(sorted_host_edges, witness_bits[p])) != p:
            problems.append(f"witness for {p} has another profile")
        if (p[0] + p[2]) % 2:
            problems.append(f"{p} breaks handshake parity")
        if tuple(reversed(p)) not in profiles:
            problems.append(f"{p} is achievable but its reversal is not")
    best = min((deviation(p) for p in profiles), default=None)
    if best != min_deviation:
        problems.append(f"reported min deviation {min_deviation}, recounted {best}")
    if best != theorem_min_deviation(n, sorted_host_edges):
        problems.append(f"min deviation {best} contradicts the theorem")
    if (n - 2, 0, 2, 0) in profiles:
        problems.append(f"{(n - 2, 0, 2, 0)} reported achievable")
    if len(sorted_host_edges) <= enumerate_up_to:
        first = enumerate_profiles(n, sorted_host_edges)
        if set(first) != profiles:
            problems.append("achievable set differs from plain enumeration")
        elif any(first[p] != witness_bits[p] for p in profiles):
            problems.append("a witness is not the first subset in rank order")
    return problems


def self_test() -> list[str]:
    """Mutated results must be rejected; returns what the checker missed.

    Uses hand-built hosts and subgraphs only, so it does not need degbal.
    """
    missed = []
    # Petersen graph and an H with profile (1, 2, 3, 4), the statement IV target.
    petersen = sorted(
        [(i, (i + 1) % 5) if i < 4 else (0, 4) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [tuple(sorted((5 + i, 5 + (i + 2) % 5))) for i in range(5)]
    )
    good = [(0, 1), (0, 4), (0, 5), (1, 2), (5, 7)]
    if decomposition_problems(10, petersen, good, "IV"):
        missed.append("a correct statement IV result was rejected")
    for e in good:
        rest = [x for x in good if x != e]
        if not decomposition_problems(10, petersen, rest, "IV"):
            missed.append(f"dropping {e} went unnoticed")
        if not decomposition_problems(10, petersen, rest, "IV", reported_achieved=profile(10, 3, rest)):
            missed.append(f"dropping {e} with a recounted profile went unnoticed")
    for e in petersen:
        if e not in good and not decomposition_problems(10, petersen, good + [e], "IV"):
            missed.append(f"adding {e} went unnoticed")
    if not decomposition_problems(10, petersen, good + [(0, 2)], "IV"):
        missed.append("a non-host edge went unnoticed")
    if not decomposition_problems(10, petersen, good + [good[0]], "IV"):
        missed.append("a repeated edge went unnoticed")
    if not decomposition_problems(10, petersen, good, "IV", reported_deviation=Fraction(1, 2)):
        missed.append("a wrong reported deviation went unnoticed")
    # K4: the best balanced H is one edge (deviation exactly 1); the empty H is not.
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    if decomposition_problems(4, k4, [(0, 1)], "BALANCED"):
        missed.append("the best K4 result was rejected")
    if not decomposition_problems(4, k4, [], "BALANCED"):
        missed.append("a K4 result with its edge dropped went unnoticed")
    # Oracle reports: K4's full enumeration must pass, a wrong one must not.
    first = enumerate_profiles(4, k4)
    if report_problems(4, k4, list(first), first, Fraction(1)):
        missed.append("a correct K4 report was rejected")
    some = next(p for p in first if p != tuple(reversed(p)))
    partial = {p: b for p, b in first.items() if p != some}
    if not report_problems(4, k4, list(partial), partial, Fraction(1)):
        missed.append("a report missing a profile went unnoticed")
    shifted = {p: b ^ 1 for p, b in first.items()}
    if not report_problems(4, k4, list(shifted), shifted, Fraction(1)):
        missed.append("witnesses with one edge toggled went unnoticed")
    return missed


if __name__ == "__main__":
    missed = self_test()
    for line in missed:
        print(f"MISSED: {line}")
    print("checker self-test:", "FAIL" if missed else "PASS")
    raise SystemExit(1 if missed else 0)
