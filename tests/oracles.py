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
