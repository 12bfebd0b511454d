"""Hypothesis strategies shared across the property tests."""

from fractions import Fraction

from hypothesis import strategies as st

from catent.model import Dataset

SYMBOLS = "abcd"


@st.composite
def datasets(draw, min_rows=2, max_rows=8, min_cols=1, max_cols=3, max_alphabet=3):
    """Small uniform-weight datasets with short string labels."""
    n = draw(st.integers(min_rows, max_rows))
    n_cols = draw(st.integers(min_cols, max_cols))
    columns = {}
    for i in range(n_cols):
        k = draw(st.integers(1, max_alphabet))
        columns[f"c{i}"] = [
            SYMBOLS[draw(st.integers(0, k - 1))] for _ in range(n)
        ]
    return Dataset.from_columns(columns)


@st.composite
def weighted_datasets(draw, max_rows=6, max_multiplicity=4, max_alphabet=3):
    """A dataset of two or three columns whose row i weighs ``m_i / sum(m)``
    for small drawn integers ``m_i``, paired with its uniform expansion:
    the same columns as label lists, with row i repeated ``m_i`` times."""
    n = draw(st.integers(1, max_rows))
    mult = draw(st.lists(st.integers(1, max_multiplicity), min_size=n, max_size=n))
    columns = {}
    for i in range(draw(st.integers(2, 3))):
        k = draw(st.integers(1, max_alphabet))
        columns[f"c{i}"] = [SYMBOLS[draw(st.integers(0, k - 1))] for _ in range(n)]
    total = sum(mult)
    weighted = Dataset.from_columns(columns, [Fraction(m, total) for m in mult])
    expanded = {
        name: [lab for lab, m in zip(col, mult) for _ in range(m)]
        for name, col in columns.items()
    }
    return weighted, expanded


def labels(min_size=1, max_size=8):
    return st.lists(
        st.sampled_from(SYMBOLS), min_size=min_size, max_size=max_size
    )


scalar_labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=6
)


def tuple_labels(depth=2):
    base = scalar_labels
    for _ in range(depth):
        base = st.one_of(
            base, st.tuples(base, base), st.tuples(base, base, base)
        )
    return base
