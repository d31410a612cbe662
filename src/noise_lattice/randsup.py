"""Random elements of finite Boolean algebras and the join process.

An element is sampled by flipping one biased coin per atom; the join
process accumulates such samples over nested algebras (here realized
combinatorially: level k has atoms 1..n_k and the inclusions are identity
on indices).  Monte-Carlo estimates are compared against the exact closed
forms, and the probability that a fixed atom has been swallowed is checked
against its union bound.

Random numbers are counter-based (Salmon et al. 2011, "Parallel random
numbers: as easy as 1, 2, 3"): trials come in blocks of ``BLOCK`` = 4096,
and block b draws from one Philox stream keyed by (seed, b).  Every block
is drawn in full, one ``(BLOCK, n_k)`` uniform array per level in level
order, and trial t is row t mod 4096 of block t div 4096.  So trial t
depends only on the seed, t and the levels, never on the trial count;
rows past the trial count are dropped.

numpy is imported on first use, by the functions that draw or count, so
importing this module does not load it.
"""

from __future__ import annotations

import math

from .errors import CapacityError, Frozen, PreconditionError, Record

BLOCK = 4096  # trials per Philox stream
MAX_LEVEL_ATOMS = 1024  # one level's (BLOCK, n_k) float draw stays within 32 MiB
MAX_CELLS = 1 << 31  # uniforms drawn by one run, about 20 s at 10^8 a second


class SampleConfig(Frozen):
    atom_counts: tuple
    ps: tuple
    seed: int
    trials: int

    def __init__(self, atom_counts: tuple, ps: tuple, seed: int, trials: int):
        if len(atom_counts) != len(ps):
            raise ValueError("atom_counts and ps must have equal length")
        if not ps:
            raise ValueError("at least one level is required")
        if any(not 0.0 < p < 1.0 for p in ps):
            raise PreconditionError("each p must lie strictly between 0 and 1")
        if any(n < 1 for n in atom_counts):
            raise ValueError("each atom count must be at least 1")
        if any(b < a for a, b in zip(atom_counts, atom_counts[1:])):
            raise ValueError("atom counts must be nondecreasing")
        if trials < 1:
            raise ValueError("at least one trial is required")
        if atom_counts[-1] > MAX_LEVEL_ATOMS:
            raise CapacityError(
                f"{atom_counts[-1]} atoms at one level exceed the guard of "
                f"{MAX_LEVEL_ATOMS} per level"
            )
        cells = -(-trials // BLOCK) * BLOCK * sum(atom_counts)
        if cells > MAX_CELLS:
            raise CapacityError(
                f"{trials} trials over {sum(atom_counts)} atoms draw {cells} uniforms, past "
                f"the guard of {MAX_CELLS}"
            )
        self.__dict__.update(atom_counts=atom_counts, ps=ps, seed=seed, trials=trials)


def trial_rng(seed: int, block: int) -> np.random.Generator:
    """The counter-based stream of one block of trials: Philox keyed by (seed, block)."""
    import numpy as np

    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    )


def sample_element(n_atoms: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """One element per trial of a block: row r holds the atoms of trial r.

    A boolean ``(BLOCK, n_atoms)`` matrix; each atom is included
    independently with probability p.
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError("p must lie strictly between 0 and 1")
    return rng.random((BLOCK, n_atoms)) < p


def _blocks(seed: int, trials: int):
    """(stream, rows) per block: rows is how many of its BLOCK trials are kept."""
    for block in range(-(-trials // BLOCK)):
        yield trial_rng(seed, block), min(BLOCK, trials - block * BLOCK)


def run_join_process(cfg: SampleConfig) -> list:
    """Per trial, the increasing chain of cumulative joins Y_1 <= Y_2 <= ...

    Returned as a list of tuples of frozensets of atom indices.
    """
    import numpy as np

    out = []
    for rng, rows in _blocks(cfg.seed, cfg.trials):
        acc = np.zeros((BLOCK, cfg.atom_counts[-1]), dtype=bool)
        levels = []
        for n_atoms, p in zip(cfg.atom_counts, cfg.ps):
            acc[:, :n_atoms] |= sample_element(n_atoms, p, rng)
            levels.append(acc[:rows].copy())
        for chain in zip(*levels):
            out.append(tuple(frozenset(np.flatnonzero(y).tolist()) for y in chain))
    return out


class UnionBoundReport(Record):
    estimate: float
    exact: float
    bound: float
    sigma: float
    within_three_sigma: bool
    below_bound: bool

    @property
    def ok(self) -> bool:
        return self.within_three_sigma and self.below_bound


def union_bound_report(cfg: SampleConfig) -> UnionBoundReport:
    """Estimate Pr[atom 0 <= Y_n] and compare with 1 - prod(1-p_k) <= sum p_k.

    Every atom count is at least 1, so atom 0 exists at every level, and
    every atom that does has the same law.  A ``PreconditionError`` unless
    sum(p) < 1.
    """
    import numpy as np

    if sum(cfg.ps) >= 1.0:
        raise PreconditionError("the union-bound experiment needs sum(p) < 1")
    hits = 0
    for rng, rows in _blocks(cfg.seed, cfg.trials):
        hit = np.zeros(BLOCK, dtype=bool)
        for n_atoms, p in zip(cfg.atom_counts, cfg.ps):
            hit |= sample_element(n_atoms, p, rng)[:, 0]
        hits += int(np.count_nonzero(hit[:rows]))
    estimate = hits / cfg.trials
    exact = 1.0
    for p in cfg.ps:
        exact *= 1.0 - p
    exact = 1.0 - exact
    bound = float(sum(cfg.ps))
    sigma = (exact * (1.0 - exact) / cfg.trials) ** 0.5
    return UnionBoundReport(
        estimate,
        exact,
        bound,
        sigma,
        abs(estimate - exact) <= 3.0 * sigma,
        estimate <= bound + 3.0 * sigma,
    )


def element_counts(n_atoms: int, p: float, seed: int, trials: int) -> np.ndarray:
    """Histogram of sampled elements over all 2^n atom subsets (bitmask order)."""
    import numpy as np

    counts = np.zeros(1 << n_atoms, dtype=np.int64)
    weights = 1 << np.arange(n_atoms, dtype=np.int64)
    for rng, rows in _blocks(seed, trials):
        masks = sample_element(n_atoms, p, rng)[:rows] @ weights
        counts += np.bincount(masks, minlength=1 << n_atoms)
    return counts


def _chi2_sf(x: float, k: int) -> float:
    """Pr[chi^2_k > x] for an integer k >= 1, in closed form.

    Even k: the Poisson tail e^(-x/2) sum_{j < k/2} (x/2)^j / j!.  Odd k:
    erfc(sqrt(x/2)) plus the half-integer terms, each sqrt(2x/pi) e^(-x/2)
    times x^(j-1) / (3 * 5 * ... * (2j - 1)) for j = 1 .. (k-1)/2.
    """
    half = x / 2.0
    if k % 2 == 0:
        term = total = math.exp(-half)
        for j in range(1, k // 2):
            term *= half / j
            total += term
        return total
    total = math.erfc(math.sqrt(half))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-half)
    for j in range(1, (k + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    return total


def element_distribution_pvalue(n_atoms: int, p: float, seed: int, trials: int):
    """Chi-square p-value of the sampled histogram against p^k (1-p)^(n-k)."""
    import numpy as np

    counts = element_counts(n_atoms, p, seed, trials)
    expected = np.array(
        [
            trials * p ** bin(m).count("1") * (1 - p) ** (n_atoms - bin(m).count("1"))
            for m in range(1 << n_atoms)
        ]
    )
    stat = float(((counts - expected) ** 2 / expected).sum())
    return _chi2_sf(stat, len(counts) - 1), counts, expected


def inclusion_decay(cfg: SampleConfig) -> list:
    """The sequence (1-p_n)^(n^2), n = 1, 2, ..., reported for inspection only."""
    return [float((1.0 - p) ** (n * n)) for n, p in enumerate(cfg.ps, 1)]
