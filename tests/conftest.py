"""Shared fixtures: seeded random problem instances used across test modules.

Instances use count-like non-negative integer attributes with continuous
exchange parameters, the regime the library targets; ``negative=True``
shifts them below zero, and ``ties_at_zero=True`` adds a heavy member and
swaps in an elite target that several candidates reach exactly. Team
members are always drawn from the object space, so the identity swap is
available.
"""

import os
from dataclasses import dataclass

import numpy as np
from hypothesis import settings

from teamrank.core import ObjectRecord, ObjectSpace, TargetContext, TeamContext, team_from_ids
from teamrank.dataio import NbParams, gen_synthetic
from teamrank.ranking import virtual_object

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@dataclass
class Instance:
    seed: int
    space: ObjectSpace
    team: TeamContext
    target: TargetContext
    weights: np.ndarray
    top_k: int
    block_size: int


def random_instance(
    seed: int,
    *,
    n: int | None = None,
    d: int | None = None,
    m: int | None = None,
    lambda_mode: str = "uniform",
    inject_dominator: bool = False,
    negative: bool = False,
    ties_at_zero: bool = False,
) -> Instance:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = int(rng.integers(20, 501)) if n is None else n
    d = int(rng.integers(2, 12)) if d is None else d
    m = int(rng.integers(2, 16)) if m is None else m
    m = min(m, n)

    params = {
        f"a{j}": NbParams(r=float(rng.uniform(0.5, 2.2)), p=float(rng.uniform(0.005, 0.35)))
        for j in range(d)
    }
    space = gen_synthetic(params, count=n, seed=int(rng.integers(0, 2**31)), lambda_range=(1.0, 100.0))
    if lambda_mode == "ones":
        space = ObjectSpace(
            ids=space.ids,
            lambdas=np.ones(n),
            attrs=space.attrs,
            attribute_names=space.attribute_names,
        )

    member_ids = rng.choice(space.ids, size=m, replace=False)
    team = team_from_ids(space, member_ids, team_id="C")

    other = team_from_ids(space, rng.choice(space.ids, size=m, replace=False), team_id="X")
    factors = rng.uniform(0.7, 1.4, size=d)
    target = TargetContext(team_id="T", aggregate=other.aggregate * factors)

    weights = rng.uniform(0.1, 2.0, size=d)
    top_k = int(rng.integers(1, 16))
    block_size = int(rng.choice([1, 2, 3, 4, 7, 10, 50]))

    if inject_dominator:
        v = virtual_object(team, target, team.members[0])
        dom = ObjectRecord(
            id="zzz-dominator",
            label="dominator",
            lam=1.0,
            attrs=np.ceil(v.values) + 1.0,
        )
        space = ObjectSpace.from_records(space.records() + [dom], space.attribute_names)
        team = team_from_ids(space, member_ids, team_id="C")

    if negative:
        # every value of dimension 0 goes negative, and the target sits just
        # above the team there: the member lowest on it gets a clipped virtual
        # object while candidate rates are negative, where the paper's odis
        # key stops tracking exact order
        shift = rng.uniform(0.5, 2.0, size=d) * space.attrs.mean(axis=0)
        shift[0] = space.attrs[:, 0].max() + 1.0
        space = ObjectSpace(
            ids=space.ids,
            lambdas=space.lambdas,
            attrs=space.attrs - shift,
            attribute_names=space.attribute_names,
        )
        team = team_from_ids(space, member_ids, team_id="C")
        aggregate = target.aggregate - m * shift
        aggregate[0] = team.aggregate[0] - 0.5 * min(r.attrs[0] for r in team.members)
        target = TargetContext(team_id="T", aggregate=aggregate)

    if ties_at_zero:
        # a heavy extra member, above every object by more than the team
        # carries on every dimension, so
        # trading it for a low-rate candidate can flip any strong dimension
        heavy = ObjectRecord(
            id="zzz-heavy",
            label="heavy",
            lam=1.0,
            attrs=space.attrs.max(axis=0) + team.aggregate + 2.0,
        )
        space = ObjectSpace.from_records(space.records() + [heavy], space.attribute_names)
        team = team_from_ids(space, [*member_ids, heavy.id], team_id="C")
        # an elite target, strong on every dimension but the first by more
        # than the member lowest on that first dimension carries, and weak
        # there by half of what the second-best candidate would add: both of
        # the best candidates replace that member at distance exactly 0
        member = min(team.members, key=lambda r: r.attrs[0] / r.lam)
        second = np.sort(space.attrs[:, 0] / space.lambdas)[-2]
        aggregate = team.aggregate - member.attrs - 1.0
        aggregate[0] = team.aggregate[0] + max(0.0, 0.5 * (member.lam * second - member.attrs[0]))
        target = TargetContext(team_id="T", aggregate=aggregate)

    return Instance(
        seed=seed,
        space=space,
        team=team,
        target=target,
        weights=weights,
        top_k=top_k,
        block_size=block_size,
    )


def pretend_cores(monkeypatch, count):
    """Make the process's CPU affinity report ``count`` cores, so the
    threaded member passes run the same way on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
