"""Seed training for the built-in semantic types.

CopyCat ships with types it has "seen previously" (Figure 1's PR-Street /
PR-City suggestions come from prior knowledge). This module trains a
:class:`SemanticTypeLearner` on samples drawn from the synthetic world, so
recognition generalizes to *new* sources that were not part of training.
"""

from __future__ import annotations

import random

from ...cache.lru import LRUCache
from ...data.names import person_name, phone_number, shelter_name
from ...substrate.relational import schema as types
from ...substrate.services.gazetteer import Gazetteer
from ...util.rng import derive_rng, make_rng
from .type_learner import SemanticTypeLearner

#: Built-in type sets kept process-wide, keyed on ``(seed, samples)``. A
#: server trains the same seed for every session and again on recovery.
SEED_MEMO_CAPACITY = 4
_SEEDED = LRUCache(SEED_MEMO_CAPACITY)


def seed_type_learner(
    gazetteer: Gazetteer | None = None,
    samples: int = 60,
    seed: int | random.Random | None = None,
    learner: SemanticTypeLearner | None = None,
) -> SemanticTypeLearner:
    """Train the built-in types from gazetteer-drawn samples.

    The training gazetteer may be (and in tests deliberately is) a
    *different* world from the one being recognized — the paper's robustness
    claim is exactly that recognition works on "new sources of data that may
    not precisely match the original learned distribution of patterns".

    With an ``int`` *seed* and neither *gazetteer* nor *learner* given, the
    trained types are memoised process-wide and a fresh learner is seeded
    with them. Learned types are frozen and refinement replaces them, so
    no learner can change another's.
    """
    if not isinstance(seed, int) or gazetteer is not None or learner is not None:
        return _train(gazetteer, samples, seed, learner or SemanticTypeLearner())
    builtins = _SEEDED.get((seed, samples))
    if builtins is None:
        trained = _train(None, samples, seed, SemanticTypeLearner())
        builtins = tuple(trained.get(name) for name in trained.known_types())
        _SEEDED.put((seed, samples), builtins)
    learner = SemanticTypeLearner()
    for learned in builtins:
        learner.add(learned)
    return learner


def _train(
    gazetteer: Gazetteer | None,
    samples: int,
    seed: int | random.Random | None,
    learner: SemanticTypeLearner,
) -> SemanticTypeLearner:
    rng = make_rng(seed)
    gazetteer = gazetteer or Gazetteer(n_cities=10, streets_per_city=30, seed=derive_rng(rng, "world"))

    addresses = gazetteer.sample(min(samples, len(gazetteer)), seed=derive_rng(rng, "sample"))
    learner.learn(types.STREET, [address.street for address in addresses])
    learner.learn(types.CITY, [address.city for address in addresses])
    learner.learn(types.ZIPCODE, [address.zip for address in addresses])
    learner.learn(types.STATE, [address.state for address in addresses] + ["GA", "AL", "TX", "NY", "CA"])
    learner.learn(types.LATITUDE, [f"{address.lat:.6f}" for address in addresses])
    learner.learn(types.LONGITUDE, [f"{address.lon:.6f}" for address in addresses])

    people_rng = derive_rng(rng, "people")
    learner.learn(types.NAME, [person_name(people_rng) for _ in range(samples)])

    place_rng = derive_rng(rng, "places")
    used_places: set[str] = set()
    learner.learn(
        types.PLACE, [shelter_name(place_rng, used_places) for _ in range(samples)]
    )
    learner.learn(types.PHONE, [phone_number(people_rng) for _ in range(samples)])

    date_rng = derive_rng(rng, "dates")
    learner.learn(
        types.DATE,
        [
            f"{date_rng.randint(1,12):02d}/{date_rng.randint(1,28):02d}/200{date_rng.randint(5,9)}"
            for _ in range(samples)
        ],
    )
    money_rng = derive_rng(rng, "money")
    learner.learn(
        types.CURRENCY,
        [f"${money_rng.randint(10, 99999)}.{money_rng.randint(0,99):02d}" for _ in range(samples)],
    )
    url_rng = derive_rng(rng, "urls")
    hosts = ("fema.gov", "redcross.org", "browardschools.com", "example.com")
    learner.learn(
        types.URL,
        [f"http://www.{url_rng.choice(hosts)}/page/{url_rng.randint(1,500)}" for _ in range(samples)],
    )
    return learner
