"""Shared instance generators for the test suite."""

import random

from mlgdesign import Channel, DesignProblem, Server, Session, Subscriber


def t1_problem() -> DesignProblem:
    """The desk-scale two-subscriber fixture used throughout the tests."""
    return DesignProblem(
        subscribers=[Subscriber("u1", [Session("u1", 3.0)]),
                     Subscriber("u2", [Session("u2", 4.0)])],
        servers=[Server("s1", 5.0), Server("s2", 5.0)],
        service_id="v0", service_productivity=10.0,
        intermediates=["z1"],
        channels=[Channel("b1", ("u1", "z1"), 10.0),
                  Channel("b2", ("u2", "z1"), 10.0),
                  Channel("b3", ("z1", "s1"), 10.0),
                  Channel("b4", ("z1", "s2"), 10.0),
                  Channel("b5", ("s1", "s2"), 10.0)])


def random_problem(rng: random.Random, max_subs: int = 2, max_servers: int = 2,
                   max_intermediates: int = 2, max_channels: int = 7,
                   cap_range=(2, 12), slack_range=(0, 3),
                   demand_range=(1, 5)) -> DesignProblem:
    """Random connected instance within the oracle's size limits.

    Layer 1 is a random spanning tree plus extra channels; server
    productivities sum to total demand plus a nonnegative slack.
    """
    n_sub = rng.randint(1, max_subs)
    n_srv = rng.randint(1, max_servers)
    n_int = rng.randint(0, max_intermediates)
    subs = [f"u{i}" for i in range(1, n_sub + 1)]
    ints = [f"z{i}" for i in range(1, n_int + 1)]
    srvs = [f"s{i}" for i in range(1, n_srv + 1)]
    nodes = subs + ints + srvs

    order = nodes[:]
    rng.shuffle(order)
    pairs = []
    seen = set()
    for i in range(1, len(order)):
        a, b = order[i], rng.choice(order[:i])
        pairs.append((a, b))
        seen.add(frozenset((a, b)))
    n_ch = rng.randint(len(pairs), max(len(pairs), min(max_channels,
                                                       len(nodes) * (len(nodes) - 1) // 2)))
    while len(pairs) < n_ch:
        a, b = rng.sample(nodes, 2)
        if frozenset((a, b)) in seen:
            continue
        seen.add(frozenset((a, b)))
        pairs.append((a, b))

    demands = {u: rng.randint(*demand_range) for u in subs}
    total = sum(demands.values())
    slack = rng.randint(*slack_range)
    prods = [0] * n_srv
    for _ in range(total + slack):
        prods[rng.randrange(n_srv)] += 1

    return DesignProblem(
        subscribers=[Subscriber(u, [Session(u, float(demands[u]))]) for u in subs],
        servers=[Server(s, float(p)) for s, p in zip(srvs, prods)],
        service_id="v0", service_productivity=float(total + slack),
        intermediates=ints,
        channels=[Channel(f"b{i}", pair, capacity=float(rng.randint(*cap_range)))
                  for i, pair in enumerate(pairs, start=1)])


def big_problem(seed: int, n_sub: int = 20, n_srv: int = 5, n_int: int = 10,
                n_ch: int = 60, slack: int = 5) -> DesignProblem:
    """Larger connected instance for the scale smoke test."""
    rng = random.Random(seed)
    subs = [f"u{i:02d}" for i in range(n_sub)]
    ints = [f"z{i:02d}" for i in range(n_int)]
    srvs = [f"s{i:02d}" for i in range(n_srv)]
    nodes = subs + ints + srvs
    order = nodes[:]
    rng.shuffle(order)
    pairs = []
    seen = set()
    for i in range(1, len(order)):
        a, b = order[i], rng.choice(order[:i])
        pairs.append((a, b))
        seen.add(frozenset((a, b)))
    while len(pairs) < n_ch:
        a, b = rng.sample(nodes, 2)
        if frozenset((a, b)) in seen:
            continue
        seen.add(frozenset((a, b)))
        pairs.append((a, b))
    demands = {u: rng.randint(1, 5) for u in subs}
    prods = [0] * n_srv
    for _ in range(sum(demands.values()) + slack):
        prods[rng.randrange(n_srv)] += 1
    return DesignProblem(
        subscribers=[Subscriber(u, [Session(u, float(demands[u]))]) for u in subs],
        servers=[Server(s, float(p)) for s, p in zip(srvs, prods)],
        service_id="svc", service_productivity=float(sum(prods)),
        intermediates=ints,
        channels=[Channel(f"b{i:02d}", pair, capacity=float(rng.randint(5, 30)))
                  for i, pair in enumerate(pairs)])


def scaled_big_problem(seed: int, scale: float) -> DesignProblem:
    """``big_problem`` with every count multiplied by ``scale`` and rounded
    (the benchmark's ladder rungs)."""
    return big_problem(seed, n_sub=round(20 * scale), n_srv=round(5 * scale),
                       n_int=round(10 * scale), n_ch=round(60 * scale),
                       slack=round(5 * scale))
