"""Independent brute-force oracles used to check the library's fast paths.

Everything here is written with plain python loops and math.fsum, on
purpose: these must not share code with the implementation under test.
"""

import math


def entropy_oracle(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def kl_oracle(p: dict, q: dict) -> float:
    total = 0.0
    for k, pv in p.items():
        if pv > 0.0:
            total += pv * math.log2(pv / q[k])
    return total


def mi_oracle(joint) -> float:
    """Mutual information of a joint distribution given as a list of rows."""
    n = len(joint)
    m = len(joint[0])
    px = [math.fsum(joint[i][j] for j in range(m)) for i in range(n)]
    py = [math.fsum(joint[i][j] for i in range(n)) for j in range(m)]
    total = 0.0
    for i in range(n):
        for j in range(m):
            v = joint[i][j]
            if v > 0.0:
                total += v * math.log2(v / (px[i] * py[j]))
    return total


def pushforward_oracle(mapping: dict, pmf: dict) -> dict:
    out: dict = {}
    for x, p in pmf.items():
        y = mapping[x]
        out[y] = out.get(y, 0.0) + p
    return out


def grouping_rhs_oracle(mapping: dict, pmf: dict) -> float:
    """H(Y) + sum_k q(y_k) H_k, all by naive summation."""
    groups: dict = {}
    for x, y in mapping.items():
        groups.setdefault(y, []).append(x)
    q = {y: math.fsum(pmf[x] for x in xs) for y, xs in groups.items()}
    rhs = entropy_oracle(q.values())
    for y, xs in groups.items():
        if q[y] > 0.0:
            rhs += q[y] * entropy_oracle([pmf[x] / q[y] for x in xs])
    return rhs


def uniform_preimage_impression_oracle(mapping: dict, pmf: dict) -> dict:
    """Mixture of per-output uniform distributions over preimages."""
    groups: dict = {}
    for x, y in mapping.items():
        groups.setdefault(y, []).append(x)
    imp = {x: 0.0 for x in pmf}
    for y, xs in groups.items():
        qy = math.fsum(pmf[x] for x in xs)
        for x in xs:
            imp[x] += qy / len(xs)
    return imp


def prior_weighted_impression_oracle(mapping: dict, pmf: dict, prior: dict) -> dict:
    """Mixture of the prior conditioned on each preimage, weighted by q(y)."""
    groups: dict = {}
    for x, y in mapping.items():
        groups.setdefault(y, []).append(x)
    imp = {x: 0.0 for x in pmf}
    for y, xs in groups.items():
        qy = math.fsum(pmf[x] for x in xs)
        if qy <= 0.0:
            continue
        mass = math.fsum(prior[x] for x in xs)
        for x in xs:
            imp[x] += qy * prior[x] / mass
    return imp


def workflow_oracle(nodes: dict, edges: list, decisional: str) -> dict:
    """Benefit interval and total cost of a workflow, from first principles.

    ``nodes`` maps each node to its pmf (letter -> probability). Each edge
    is a dict with ``src``, ``dst``, its node ``kind``, its ``cost`` amount
    and ``d``, its distortion in bits.

    An edge's benefit is H(src) - H(dst) - d, with H the entropy
    ("actual") or log2 of the letter count ("maximal"). A source node
    holds [0, 0]; a node with one in-edge holds its source's interval plus
    that benefit. A node with two or more in-edges, parallel ones
    included, is a joint. Its fork is the lowest common ancestor of the
    in-edges' sources (each counted as its own ancestor): the common
    ancestor from which no other common ancestor can be reached. A joint
    whose sources share no ancestor, or that has several lowest common
    ancestors, is an error. Each arriving branch brings its source's
    interval plus the edge's benefit, less the fork's interval, bound by
    bound; the joint holds the fork's interval plus
    [max of the branches' lo, sum of their hi]. When every edge between
    fork and joint is a machine ("M") edge, that hi is capped at H(fork),
    and lo is at most hi.

    The cost under "sum" adds every edge's cost; under "max_parallel" it
    is the costliest path from a source to ``decisional``.

    Returns {"benefit": {mode: (lo, hi)}, "cost": {merge: amount}}.
    """
    into = {v: [e for e in edges if e["dst"] == v] for v in nodes}
    outof = {v: [e for e in edges if e["src"] == v] for v in nodes}

    def reach(v: str, step: dict, key: str) -> set:
        """``v`` and every node reached from it along ``step``, by DFS."""
        seen, stack = {v}, [v]
        while stack:
            for e in step[stack.pop()]:
                if e[key] not in seen:
                    seen.add(e[key])
                    stack.append(e[key])
        return seen

    ancestors = {v: reach(v, into, "src") for v in nodes}
    descendants = {v: reach(v, outof, "dst") for v in nodes}
    order = sorted(nodes, key=lambda v: len(ancestors[v]))  # an ancestor has fewer

    forks = {}
    for v in nodes:
        if len(into[v]) < 2:
            continue
        common = set.intersection(*(ancestors[e["src"]] for e in into[v]))
        lowest = [c for c in common if not any(o in descendants[c] for o in common - {c})]
        if not lowest:
            raise ValueError(f"no common ancestor for joint {v}")
        if len(lowest) > 1:
            raise ValueError(f"joint {v} has lowest common ancestors {sorted(lowest)}")
        forks[v] = lowest[0]

    def machine_only(fork: str, joint: str) -> bool:
        between = descendants[fork] & ancestors[joint]
        return all(e["kind"] == "M" for e in edges if e["src"] in between and e["dst"] in between)

    entropies = {
        "actual": {v: entropy_oracle(p.values()) for v, p in nodes.items()},
        "maximal": {v: math.log2(len(p)) for v, p in nodes.items()},
    }
    benefit = {}
    for mode, h in entropies.items():
        acc = {}
        for v in order:
            arriving = [(acc[e["src"]], h[e["src"]] - h[e["dst"]] - e["d"]) for e in into[v]]
            if not arriving:
                acc[v] = (0.0, 0.0)
            elif len(arriving) == 1:
                (lo, hi), b = arriving[0]
                acc[v] = (lo + b, hi + b)
            else:
                fork = forks[v]
                base_lo, base_hi = acc[fork]
                lo = max(lo + b - base_lo for (lo, _), b in arriving)
                hi = math.fsum(hi + b - base_hi for (_, hi), b in arriving)
                if machine_only(fork, v):
                    hi = min(hi, h[fork])
                acc[v] = (base_lo + min(lo, hi), base_hi + hi)
        benefit[mode] = acc[decisional]

    dearest = {}
    for v in order:
        dearest[v] = max((dearest[e["src"]] + e["cost"] for e in into[v]), default=0.0)
    return {
        "benefit": benefit,
        "cost": {"sum": math.fsum(e["cost"] for e in edges), "max_parallel": dearest[decisional]},
    }
