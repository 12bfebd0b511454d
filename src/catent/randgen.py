"""Seeded random dataset generation for validators and property tests.

The generator is deliberately self-contained: a SplitMix64 stream (the
public-domain mixing constants) rather than a platform RNG, so a given
``(GenConfig, columns)`` pair reproduces a byte-identical dataset on any
machine, Python version, or reimplementation in another language.

Correlation modes control how columns relate:

* ``independent``: every column drawn independently.
* ``refined``: the second column subdivides the first column's blocks,
  so the first partition is coarser than the second by construction
  (needs at least two columns to bite; later columns are independent).
* ``noisy-copy``: the second column is a relabeled copy of the first
  with at most one row flipped, landing on or near indiscernibility.
* ``arbitrary``: each column after the first independently picks one of
  independent / refine-an-earlier / noisy-copy-an-earlier / constant.
"""

from .model import CatentError, Dataset, _set, _Value

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

MODES = ("independent", "refined", "noisy-copy", "arbitrary")

# upper bounds on generated sizes, checked before anything is drawn; 2**21 rows
# is also the size of the nondiscreteness demo's last dataset
MAX_ROWS = 1 << 21
MAX_ALPHABET = 1 << 21
MAX_COLUMNS = 1000
# and on rows x columns: the nondiscreteness demo's largest dataset, 2 columns x 2 Mi rows
MAX_CELLS = 1 << 22


class ConfigError(CatentError, ValueError):
    """Generator configuration is out of range or malformed."""


class SplitMix64:
    """SplitMix64 pseudo-random stream over 64-bit integers.

    seed 0 produces 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, ... which
    matches the published reference outputs for this generator.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from ``range(n)`` by modulo reduction.

        The modulo bias is ~n / 2**64, far below anything observable at
        test scale, and keeping the reduction trivial keeps the stream
        easy to reproduce elsewhere.
        """
        if n <= 0:
            raise ConfigError("draw range must be positive")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish draw from the inclusive range ``[lo, hi]``."""
        if hi < lo:
            raise ConfigError("empty integer range")
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]


class GenConfig(_Value):
    """Parameters for one generated dataset.

    ``rows`` and ``alphabet_size`` are inclusive ``(lo, hi)`` ranges, each
    a tuple of two integers with ``1 <= lo <= hi`` and ``hi`` at most
    ``MAX_ROWS`` and ``MAX_ALPHABET`` respectively; the alphabet range
    bounds the number of distinct symbols a column draws from (the
    realised alphabet may be smaller).
    """

    # the defaults, which the CLI's help text reads off the class
    seed = 0
    rows = (2, 12)
    alphabet_size = (1, 4)
    correlation_mode = "arbitrary"
    _fields = ("seed", "rows", "alphabet_size", "correlation_mode")

    def __init__(self, seed: int = seed, rows: tuple[int, int] = rows,
                 alphabet_size: tuple[int, int] = alphabet_size,
                 correlation_mode: str = correlation_mode):
        _set(self, "seed", seed)
        _set(self, "rows", rows)
        _set(self, "alphabet_size", alphabet_size)
        _set(self, "correlation_mode", correlation_mode)
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        for field_name, bounds, cap in (
            ("rows", self.rows, MAX_ROWS),
            ("alphabet_size", self.alphabet_size, MAX_ALPHABET),
        ):
            if not (isinstance(bounds, tuple) and len(bounds) == 2
                    and all(isinstance(b, int) for b in bounds)):
                raise ConfigError(f"{field_name} must be a (lo, hi) tuple of ints, got {bounds!r}")
            lo, hi = bounds
            if lo < 1 or hi < lo:
                raise ConfigError(
                    f"{field_name} range ({lo}, {hi}) is empty or degenerate"
                )
            if hi > cap:
                raise ConfigError(f"{field_name} upper bound {hi} exceeds {cap}")
        if self.correlation_mode not in MODES:
            raise ConfigError(
                f"unknown correlation mode {self.correlation_mode!r}; "
                f"expected one of {MODES}"
            )


def gen_dataset(config: GenConfig, columns: int) -> Dataset:
    """Generate a uniform-weight dataset with the given column count.

    Column names are ``c0, c1, ...``; ``columns`` must lie in
    ``1..MAX_COLUMNS``, and the largest row count times ``columns`` must
    not exceed ``MAX_CELLS``.  The output is a pure function of
    ``(config, columns)``.
    """
    if not 1 <= columns <= MAX_COLUMNS:
        raise ConfigError(f"columns must lie in 1..{MAX_COLUMNS}, got {columns}")
    if config.rows[1] * columns > MAX_CELLS:
        raise ConfigError(f"{config.rows[1]} rows x {columns} columns exceed {MAX_CELLS} cells")
    rng = SplitMix64(config.seed)
    n = rng.randint(*config.rows)

    def independent() -> list[str]:
        k = rng.randint(*config.alphabet_size)
        return [f"s{rng.below(k)}" for _ in range(n)]

    def refinement(base: list[str]) -> list[str]:
        # suffixing preserves block containment regardless of the draws
        return [f"{lab}/{rng.below(2)}" for lab in base]

    def noisy_copy(base: list[str]) -> list[str]:
        alphabet = list(dict.fromkeys(base))
        rename = {lab: f"t{i}" for i, lab in enumerate(alphabet)}
        out = [rename[lab] for lab in base]
        if rng.below(2):
            out[rng.below(n)] = f"t{rng.below(len(alphabet))}"
        return out

    built: list[list[str]] = []
    mode = config.correlation_mode
    for ci in range(columns):
        if ci == 0 or mode == "independent":
            built.append(independent())
        elif mode == "refined":
            built.append(refinement(built[0]) if ci == 1 else independent())
        elif mode == "noisy-copy":
            built.append(noisy_copy(built[0]) if ci == 1 else independent())
        else:  # arbitrary
            strategy = rng.below(4)
            if strategy == 0:
                built.append(independent())
            elif strategy == 1:
                built.append(refinement(rng.choice(built)))
            elif strategy == 2:
                built.append(noisy_copy(rng.choice(built)))
            else:
                built.append(["k0"] * n)

    return Dataset.from_columns({f"c{i}": col for i, col in enumerate(built)})
