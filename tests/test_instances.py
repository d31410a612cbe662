"""The random instances draw the streams they drew with ``randint`` and ``randrange``.

``instances`` draws each integer as ``rng.choice(range(a, b + 1))``, which
in CPython makes the one call ``_randbelow`` that ``randint(a, b)`` makes.
So every seed must give the instances of the ``conftest`` oracles, which
draw as the module first did, and leave the generator in the same state.
"""

import random

import pytest
from conftest import (
    rand_atom_groups_oracle,
    rand_element_oracle,
    rand_independent_pair_oracle,
    rand_ntba_chained,
    rand_partition_oracle,
    rand_rv_oracle,
    rand_space_oracle,
)

from noise_lattice import instances as inst

SEEDS = range(50)


def _same_algebra(a, b) -> bool:
    """Algebras compare by identity, so compare their spaces and atoms."""
    return a.space == b.space and a.atoms == b.atoms


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_spaces_partitions_and_rvs_draw_the_randint_streams(mode):
    for seed in SEEDS:
        rng, oracle = random.Random(seed), random.Random(seed)
        space = inst.rand_space(rng, 6, mode)
        assert space == rand_space_oracle(oracle, 6, mode)
        assert inst.rand_partition(rng, space) == rand_partition_oracle(oracle, space)
        assert inst.rand_rv(rng, space) == rand_rv_oracle(oracle, space)
        assert inst.rand_rv(rng, space, zero_mean=True) == rand_rv_oracle(oracle, space, True)
        assert rng.random() == oracle.random()


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("max_outcomes", [32, 64])
def test_algebras_elements_and_groups_draw_the_randint_streams(mode, max_outcomes):
    for seed in SEEDS:
        rng, oracle = random.Random(seed), random.Random(seed)
        B = inst.rand_ntba(rng, max_outcomes, mode)
        assert _same_algebra(B, rand_ntba_chained(oracle, max_outcomes, mode))
        assert inst.rand_element(rng, B) == rand_element_oracle(oracle, B)
        assert inst.rand_atom_groups(rng, B) == rand_atom_groups_oracle(oracle, B)
        assert rng.random() == oracle.random()


def test_independent_pairs_draw_the_randint_streams():
    for seed in SEEDS:
        rng, oracle = random.Random(seed), random.Random(seed)
        assert inst.rand_independent_pair(rng) == rand_independent_pair_oracle(oracle)
        assert rng.random() == oracle.random()
