"""Seeded problem generators.

They repeat the construction of ``tests/helpers.big_problem`` and
``tests/helpers.random_problem`` and emit problem documents in the CLI's
file format, so that later edits to the test helpers cannot move the
benchmark's inputs.  Draw for draw, the same seed gives the same instance
as the helper it mirrors.
"""

from __future__ import annotations

import random


def _spanning_tree(rng: random.Random, nodes: list[str]):
    """Random spanning tree over ``nodes``: its pairs and their set."""
    order = nodes[:]
    rng.shuffle(order)
    pairs = []
    seen = set()
    for i in range(1, len(order)):
        a, b = order[i], rng.choice(order[:i])
        pairs.append((a, b))
        seen.add(frozenset((a, b)))
    return pairs, seen


def _add_pairs(rng: random.Random, nodes: list[str], pairs: list, seen: set,
               n_ch: int) -> None:
    """Random extra distinct node pairs until there are ``n_ch``."""
    while len(pairs) < n_ch:
        a, b = rng.sample(nodes, 2)
        if frozenset((a, b)) in seen:
            continue
        seen.add(frozenset((a, b)))
        pairs.append((a, b))


def _document(subs, demands, srvs, prods, service_id, ints, channels) -> dict:
    return {
        "subscribers": [{"id": u, "sessions": [float(demands[u])]} for u in subs],
        "servers": [{"id": s, "productivity": float(p)} for s, p in zip(srvs, prods)],
        "service": {"id": service_id, "productivity": float(sum(prods))},
        "intermediate": [{"id": z} for z in ints],
        "channels": [{"id": cid, "ends": [a, b], "capacity": float(cap), "cost": 1.0}
                     for cid, (a, b), cap in channels],
    }


def big_problem(seed: int, n_sub: int = 20, n_srv: int = 5, n_int: int = 10,
                n_ch: int = 60, slack: int = 5) -> dict:
    """The ``big_problem`` construction; the defaults are the 1x size."""
    rng = random.Random(seed)
    subs = [f"u{i:02d}" for i in range(n_sub)]
    ints = [f"z{i:02d}" for i in range(n_int)]
    srvs = [f"s{i:02d}" for i in range(n_srv)]
    nodes = subs + ints + srvs
    pairs, seen = _spanning_tree(rng, nodes)
    _add_pairs(rng, nodes, pairs, seen, n_ch)
    demands = {u: rng.randint(1, 5) for u in subs}
    prods = [0] * n_srv
    for _ in range(sum(demands.values()) + slack):
        prods[rng.randrange(n_srv)] += 1
    channels = [(f"b{i:02d}", pair, rng.randint(5, 30)) for i, pair in enumerate(pairs)]
    return _document(subs, demands, srvs, prods, "svc", ints, channels)


def scaled_big_problem(seed: int, scale: float) -> dict:
    """``big_problem`` with every count multiplied by ``scale`` and rounded."""
    return big_problem(seed, n_sub=round(20 * scale), n_srv=round(5 * scale),
                       n_int=round(10 * scale), n_ch=round(60 * scale),
                       slack=round(5 * scale))


def random_problem(rng: random.Random, max_subs: int = 2, max_servers: int = 2,
                   max_intermediates: int = 2, max_channels: int = 7,
                   cap_range=(2, 12), slack_range=(0, 3),
                   demand_range=(1, 5)) -> dict:
    """The ``random_problem`` construction (the acceptance corpus is
    ``random.Random(9000 + i)`` with the defaults, for i in 0..99)."""
    n_sub = rng.randint(1, max_subs)
    n_srv = rng.randint(1, max_servers)
    n_int = rng.randint(0, max_intermediates)
    subs = [f"u{i}" for i in range(1, n_sub + 1)]
    ints = [f"z{i}" for i in range(1, n_int + 1)]
    srvs = [f"s{i}" for i in range(1, n_srv + 1)]
    nodes = subs + ints + srvs
    pairs, seen = _spanning_tree(rng, nodes)
    n_ch = rng.randint(len(pairs), max(len(pairs), min(max_channels,
                                                       len(nodes) * (len(nodes) - 1) // 2)))
    _add_pairs(rng, nodes, pairs, seen, n_ch)
    demands = {u: rng.randint(*demand_range) for u in subs}
    slack = rng.randint(*slack_range)
    prods = [0] * n_srv
    for _ in range(sum(demands.values()) + slack):
        prods[rng.randrange(n_srv)] += 1
    channels = [(f"b{i}", pair, rng.randint(*cap_range))
                for i, pair in enumerate(pairs, start=1)]
    return _document(subs, demands, srvs, prods, "v0", ints, channels)
