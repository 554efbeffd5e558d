"""Seeded random generators for collection values and deltas.

Each language draws its own values (``sample``) and deltas
(``sample_delta``, by default the terminator or a ``Payload`` of
``sample_payload``); these two functions look the language up by the
tag, so every draw, a nested stream's components included, is one call
of them. Sizes are bounded tightly (sequences up to five elements, z-sets
up to eight keys with cardinalities in [-3,3], nested streams up to three
tuples) so exhaustive exploration of the sampled configurations stays
cheap. Generated deltas are always applicable to the value they were
drawn for, and stay applicable after operators consume from that buffer,
since consumption never changes a buffer's fixedness.
"""

from __future__ import annotations

import random

from .core import EMPTY, LANGUAGES, Tag


def gen_value(tag: Tag, rng: random.Random, fixed=None):
    """A member of ``tag``; ``fixed`` forces its fixedness when given."""
    lang = LANGUAGES.get(tag.language)
    if lang is None:
        raise ValueError(f"no generator for {tag}")
    return lang.sample(tag, rng, fixed)


def gen_delta(tag: Tag, rng: random.Random, current):
    """A delta valid for ``current`` (and for any consumed version of it):
    EMPTY on a roll below 0.15, else the language's draw for that roll."""
    roll = rng.random()
    if roll < 0.15:
        return EMPTY
    lang = LANGUAGES.get(tag.language)
    if lang is None:
        raise ValueError(f"no delta generator for {tag}")
    return lang.sample_delta(tag, rng, current, roll)
