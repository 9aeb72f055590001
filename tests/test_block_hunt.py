"""Hunt for stage-2 blocks: stage 2 with a seeded random valid rule at each step.

Stage 2 asks its finders for R1, then R2, then R3, in that order, and the
canonical finders answer with the lowest valid edge (R2: a seed-cycle edge
first).  RandomRules answers each question with a uniformly random valid
application instead, so the same stage 2 walks other trajectories within
the rule order.  The hunt runs every catalog graph with n <= 14 and
seeded connected random_cubic graphs up to n = 200 under both applicable
statements, from the seed stage 1 uses.  The canonical run of each graph
must not block, which is the gate the seed cycle has to pass; no random
run may block, and every one must end on target.
"""

import random

import pytest

from degbal.connected import (
    ColoringState,
    _is_r1,
    decompose_connected_traced,
    seed_cycle,
    stage1_grow_v3,
    stage2_fill_v2,
    stage3_fill_v1,
    target_profile,
)
from degbal.gen import random_cubic
from degbal.graphs import EdgeSubset, connected_components, profile_of

from conftest import applicable_statements, load_corpus_file

CATALOG_FILES = ["connected_cubic_08.g6", "connected_cubic_10.g6",
                 "catalog/connected_cubic_12.g6", "catalog/connected_cubic_14.g6"]
RANDOM_SIZES = range(16, 201, 2)
RANDOM_SEEDS = range(10)
RANDOM_RUNS = 8  # random trajectories per (graph, statement)


class RandomRules(ColoringState):
    """A state whose stage-2 finders answer with a random valid application of rng."""

    def __init__(self, *args, rng):
        super().__init__(*args)
        self.rng = rng

    def r1(self):
        return self._pick([i for i in range(len(self.tails)) if _is_r1(self, i)])

    def r2(self):
        deg1, tails, heads = self.deg1, self.tails, self.heads
        return self._pick([i for i in range(len(tails)) if deg1[tails[i]] + deg1[heads[i]] == 1])

    def r3(self):
        deg1, adjacency, incident = self.deg1, self.adjacency, self.incident
        pairs = []
        for v in range(len(deg1)):
            if deg1[v] == 0:
                zeros = [e for w, e in zip(adjacency[v], incident[v]) if deg1[w] == 0]
                pairs.extend((e, f) for k, e in enumerate(zeros) for f in zeros[k + 1:])
        return self._pick(pairs)

    def _pick(self, found):
        return self.rng.choice(found) if found else None


def random_run(g, s, rng):
    """Stages 1-3 on a RandomRules state of rng; False if stage 2 blocks."""
    target = target_profile(g.n, s)
    state = RandomRules(g, target, seed_cycle(g), rng=rng)
    stage1_grow_v3(state)
    if not stage2_fill_v2(state):
        return False
    stage3_fill_v1(state)
    assert profile_of(g, EdgeSubset.from_member(state.colored)) == target
    return True


def hunt_inputs():
    for path in CATALOG_FILES:
        yield from load_corpus_file(path)
    for n in RANDOM_SIZES:
        for seed in RANDOM_SEEDS:
            g = random_cubic(n, seed)
            if len(connected_components(g)) == 1:
                yield f"random_cubic:{n}:{seed}", g


@pytest.mark.slow
def test_random_choices_within_the_rule_order_never_block():
    runs = 0
    for name, g in hunt_inputs():
        for s in applicable_statements(g.n):
            trace = decompose_connected_traced(g, s)[1]
            assert not trace.fallback_used, (name, s)  # the canonical rules never block
            rng = random.Random(f"{name}:{s.value}")
            for k in range(RANDOM_RUNS):
                assert random_run(g, s, rng), (name, s, k)
                runs += 1
    assert runs > 20000
