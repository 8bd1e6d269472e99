"""Seed training for the built-in semantic types.

CopyCat ships with types it has "seen previously" (Figure 1's PR-Street /
PR-City suggestions come from prior knowledge). This module trains a
:class:`SemanticTypeLearner` on samples drawn from the synthetic world, so
recognition generalizes to *new* sources that were not part of training.

The built-in types every session starts from are a process-wide constant:
trained once, on first use, from :data:`BUILTIN_TYPES_SEED`. A checkpoint
refers to them by name rather than copying them
(:mod:`repro.durability.snapshot`), so their training must give equal types
in every process.
"""

from __future__ import annotations

import random

from ...analysis.concurrency.runtime import make_lock
from ...data.names import person_name, phone_number, shelter_name
from ...substrate.relational import schema as types
from ...substrate.services.gazetteer import Gazetteer
from ...util.rng import derive_rng, make_rng
from .type_learner import LearnedType, SemanticTypeLearner

#: Training seed of the built-in types. No training seed in 0-23 scores a
#: higher top-1 accuracy on unseen scenarios (EXPERIMENTS.md E-MT).
BUILTIN_TYPES_SEED = 1
#: Training values drawn per built-in type.
BUILTIN_TYPES_SAMPLES = 60

_BUILTINS: tuple[LearnedType, ...] | None = None
_BUILTINS_LOCK = make_lock("seed._BUILTINS_LOCK")


def builtin_types() -> tuple[LearnedType, ...]:
    """The built-in types, trained on the first call and shared thereafter.

    Learned types are frozen and refinement replaces them, so no learner
    seeded with these can change another's.
    """
    global _BUILTINS
    if _BUILTINS is None:
        # Double-checked: sessions racing the first call wait for one
        # training and all get the same objects.
        with _BUILTINS_LOCK:
            if _BUILTINS is None:
                trained = _train(None, BUILTIN_TYPES_SAMPLES, BUILTIN_TYPES_SEED, SemanticTypeLearner())  # lint: allow=CONC004 -- one training per process, waited for by racing sessions; only leaf types.learn metrics emit inside
                _BUILTINS = tuple(trained.get(name) for name in trained.known_types())
    return _BUILTINS


def seed_type_learner(
    gazetteer: Gazetteer | None = None,
    samples: int = BUILTIN_TYPES_SAMPLES,
    seed: int | random.Random | None = None,
    learner: SemanticTypeLearner | None = None,
) -> SemanticTypeLearner:
    """Train the built-in types from gazetteer-drawn samples.

    The training gazetteer may be (and in tests deliberately is) a
    *different* world from the one being recognized — the paper's robustness
    claim is exactly that recognition works on "new sources of data that may
    not precisely match the original learned distribution of patterns".

    ``seed=BUILTIN_TYPES_SEED`` with the default *samples* and neither
    *gazetteer* nor *learner* is the shipped training: the learner holds
    the process's :func:`builtin_types`. Anything else trains fresh.
    """
    shipped = seed == BUILTIN_TYPES_SEED and samples == BUILTIN_TYPES_SAMPLES
    if not shipped or gazetteer is not None or learner is not None:
        return _train(gazetteer, samples, seed, learner or SemanticTypeLearner())
    learner = SemanticTypeLearner()
    for learned in builtin_types():
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
