"""Test-input supply: named cubic graphs, random cubic graphs, unions.

Randomness is a fixed, portable algorithm so seeds reproduce anywhere: every
random draw comes from the splitmix64 stream of the seed, and the half-edge
shuffle is "stable-sort stubs by their 64-bit stream keys" (attempt a uses
stream positions [a*3n, (a+1)*3n) and is accepted iff ``build_graph`` accepts
its pairs).  Position j's state is seed + (j+1)*gamma mod 2^64, so outputs are
mixed lane-parallel in big ints; they equal the scalar ``splitmix64`` steps.
"""

from __future__ import annotations

import struct

from .errors import DegbalError
from .graphs import Graph, build_graph

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 1024  # stream positions mixed per big-int chunk
_ONES = int.from_bytes((b"\1" + bytes(15)) * _LANES, "little")  # 1 in every 128-bit lane
_LOW = _MASK64 * _ONES
_RAMP = _GAMMA * int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(_LANES)), "little")
_MAX_RETRIES = 10000  # configuration-model attempts before random_cubic gives up


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def splitmix64_stream(seed: int, count: int, offset: int = 0) -> list[int]:
    """``count`` outputs of the seed's stream from position ``offset`` on.

    Position j's state is seed + (j+1)*gamma mod 2^64, so up to ``_LANES``
    positions are mixed at once, lane i of one int at bit 128*i: the 64 spare
    bits above a lane keep its products and shifted-in bits out of the next.
    """
    out: list[int] = []
    for start in range(offset, offset + count, _LANES):
        lanes = min(_LANES, offset + count - start)
        mask = (1 << 128 * lanes) - 1
        low = _LOW & mask
        z = (((seed + (start + 1) * _GAMMA) & _MASK64) * (_ONES & mask) + (_RAMP & mask)) & low
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        z = (z ^ (z >> 31)) & low  # spare words unpack to 0, which allocates nothing
        out += struct.unpack(f"<{2 * lanes}Q", z.to_bytes(16 * lanes, "little"))[::2]
    return out


def _complete(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _prism() -> Graph:
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]
    return build_graph(6, edges)


def _cube() -> Graph:
    edges = [
        (u, u ^ (1 << b))
        for u in range(8)
        for b in range(3)
        if u < u ^ (1 << b)
    ]
    return build_graph(8, edges)


def _petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def lcf_graph(pattern: list[int], repeats: int) -> Graph:
    """Hamiltonian cubic graph from LCF notation: cycle plus chords."""
    n = len(pattern) * repeats
    edges = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((i, j) if i < j else (j, i))
    return build_graph(n, edges)


_CATALOG = {
    "K4": lambda: _complete(4),
    "K33": lambda: _complete_bipartite(3, 3),
    "PRISM": _prism,
    "CUBE": _cube,
    "PETERSEN": _petersen,
    "HEAWOOD": lambda: lcf_graph([5, -5], 7),
    "PAPPUS": lambda: lcf_graph([5, 7, -7, 7, -7, -5], 3),
    "DESARGUES": lambda: lcf_graph([5, -5, 9, -9], 5),
    "MOEBIUS_KANTOR": lambda: lcf_graph([5, -5], 8),
}

CATALOG_NAMES = tuple(_CATALOG)


def named(name: str) -> Graph:
    """Canonical labeled copy of a catalog graph (name is case-insensitive)."""
    key = name.upper().replace("-", "_").replace(",", "")
    if key == "K3_3":
        key = "K33"
    if key not in _CATALOG:
        raise DegbalError(f"unknown graph {name!r}; catalog: {', '.join(CATALOG_NAMES)}")
    return _CATALOG[key]()


def random_cubic(n: int, seed: int) -> Graph:
    """Random simple cubic graph via the configuration model.

    Each attempt stable-sorts the 3n half-edges by fresh splitmix64 keys, pairs
    them consecutively and is accepted iff ``build_graph`` accepts the pairs (no
    loop, no pair listed twice in either orientation); rejection is wholesale, so
    accepted graphs are uniform over labeled simple cubic graphs.  An attempt holds
    one copy of its pairing at a time: the sorted stubs, then build_graph's edges.
    Deterministic per (n, seed).
    """
    if n < 4 or n % 2:
        raise DegbalError(f"order must be an even integer >= 4, got {n}")
    stubs = [v for v in range(n) for _ in range(3)]
    k = len(stubs)
    for attempt in range(_MAX_RETRIES):
        # Stable sort = deterministic tie-break by stub index; the keys go with the sort.
        ends = sorted(range(k), key=splitmix64_stream(seed, k, attempt * k).__getitem__)
        ends = iter(list(map(stubs.__getitem__, ends)))  # stub indices -> their vertices
        try:
            return build_graph(n, zip(ends, ends))  # refuses a loop or a pair listed twice
        except DegbalError:
            del ends  # before the next attempt's sort
    raise DegbalError(f"no simple matching after {_MAX_RETRIES} attempts")


def disjoint_union(parts: list[Graph]) -> Graph:
    """Disjoint union with cumulative label offsets."""
    offset = 0
    edges = []
    for part in parts:
        edges.extend((u + offset, v + offset) for u, v in zip(part.tails, part.heads))
        offset += part.n
    return build_graph(offset, edges)


def cycles(partition: list[int]) -> Graph:
    """Disjoint union of cycles of the given lengths (each >= 3), one ring built per length."""
    for a in partition:
        if a < 3:
            raise DegbalError(f"cycle length {a} < 3")
    rings = {a: build_graph(a, [(i, (i + 1) % a) for i in range(a)]) for a in set(partition)}
    return disjoint_union([rings[a] for a in partition])
