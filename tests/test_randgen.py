import pytest

from catent import randgen
from catent.model import induced_partition, is_coarser
from catent.randgen import (
    MAX_ALPHABET,
    MAX_CELLS,
    MAX_COLUMNS,
    MAX_ROWS,
    MODES,
    ConfigError,
    GenConfig,
    SplitMix64,
    gen_dataset,
)

# published reference outputs for a SplitMix64 stream started at seed 0
SEED0_REFERENCE = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


class TestSplitMix64:
    def test_seed_zero_reference_vector(self):
        rng = SplitMix64(0)
        assert tuple(rng.next_u64() for _ in range(4)) == SEED0_REFERENCE

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(12345), SplitMix64(12345)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_distinct_seeds_diverge(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_below_range_and_errors(self):
        rng = SplitMix64(9)
        draws = [rng.below(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        assert len(set(draws)) == 7  # all residues hit at this sample size
        with pytest.raises(ConfigError):
            rng.below(0)

    def test_randint_inclusive_bounds(self):
        rng = SplitMix64(4)
        draws = [rng.randint(3, 5) for _ in range(100)]
        assert set(draws) == {3, 4, 5}
        with pytest.raises(ConfigError):
            rng.randint(5, 3)

    def test_choice_covers_sequence(self):
        rng = SplitMix64(2)
        items = ("a", "b", "c")
        assert {rng.choice(items) for _ in range(60)} == set(items)


class TestGenConfig:
    def test_defaults_valid(self):
        cfg = GenConfig()
        assert cfg.seed == 0
        assert cfg.correlation_mode == "arbitrary"

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            GenConfig(rows=(0, 5))
        with pytest.raises(ConfigError):
            GenConfig(rows=(6, 2))
        with pytest.raises(ConfigError):
            GenConfig(alphabet_size=(3, 1))

    @pytest.mark.parametrize("field", ["rows", "alphabet_size"])
    @pytest.mark.parametrize(
        "bounds", [5, (1, 2, 3), [2, 12], (1,), (1.0, 3), (1, 3.0), (1, "3"), None],
        ids=["int", "triple", "list", "single", "float-lo", "float-hi", "str-hi", "none"])
    def test_rejects_malformed_ranges(self, field, bounds):
        with pytest.raises(ConfigError, match=f"{field} must be a \\(lo, hi\\) tuple of ints"):
            GenConfig(**{field: bounds})

    def test_size_caps(self):
        GenConfig(rows=(1, MAX_ROWS), alphabet_size=(1, MAX_ALPHABET))
        with pytest.raises(ConfigError, match="rows upper bound"):
            GenConfig(rows=(2, MAX_ROWS + 1))
        with pytest.raises(ConfigError, match="alphabet_size upper bound"):
            GenConfig(alphabet_size=(1, MAX_ALPHABET + 1))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            GenConfig(correlation_mode="chaotic")

    def test_rejects_noninteger_seed(self):
        with pytest.raises(ConfigError):
            GenConfig(seed="zero")


class TestGenDataset:
    def test_reproducible(self):
        cfg = GenConfig(seed=42)
        a, b = gen_dataset(cfg, 3), gen_dataset(cfg, 3)
        assert a.names == b.names == ("c0", "c1", "c2")
        for nm in a.names:
            assert a[nm].labels == b[nm].labels

    def test_seed_changes_output(self):
        rows = lambda d: tuple(d[nm].labels for nm in d.names)  # noqa: E731
        outputs = {rows(gen_dataset(GenConfig(seed=s), 2)) for s in range(20)}
        assert len(outputs) > 15

    def test_row_count_respects_range(self):
        for seed in range(30):
            d = gen_dataset(GenConfig(seed=seed, rows=(3, 5)), 2)
            assert 3 <= d.row_count <= 5

    def test_alphabet_respects_bound(self):
        for seed in range(30):
            d = gen_dataset(
                GenConfig(seed=seed, rows=(10, 10), alphabet_size=(1, 3),
                          correlation_mode="independent"),
                2,
            )
            for nm in d.names:
                assert len(d[nm].alphabet) <= 3

    def test_rejects_zero_columns(self):
        with pytest.raises(ConfigError):
            gen_dataset(GenConfig(), 0)

    def test_column_cap_is_checked_before_drawing(self, monkeypatch):
        assert len(gen_dataset(GenConfig(rows=(2, 2)), MAX_COLUMNS).names) == MAX_COLUMNS

        def refuse(*args, **kwargs):
            raise AssertionError("a stream was started")

        monkeypatch.setattr(randgen, "SplitMix64", refuse)
        with pytest.raises(ConfigError, match="columns"):
            gen_dataset(GenConfig(), MAX_COLUMNS + 1)

    def test_cell_cap_is_checked_before_drawing(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(randgen, "SplitMix64", reached)
        # exactly MAX_CELLS cells passes the check and reaches the generator
        with pytest.raises(Reached):
            gen_dataset(GenConfig(rows=(1, MAX_ROWS)), MAX_CELLS // MAX_ROWS)
        with pytest.raises(Reached):
            gen_dataset(GenConfig(rows=(1, MAX_CELLS // MAX_COLUMNS)), MAX_COLUMNS)
        for rows, columns in ((MAX_ROWS, MAX_CELLS // MAX_ROWS + 1),
                              (MAX_CELLS // MAX_COLUMNS + 1, MAX_COLUMNS)):
            with pytest.raises(ConfigError, match="cells"):
                gen_dataset(GenConfig(rows=(1, rows)), columns)

    def test_refined_mode_orders_first_two_columns(self):
        for seed in range(25):
            d = gen_dataset(GenConfig(seed=seed, correlation_mode="refined"), 3)
            p0 = induced_partition(d["c0"], d)
            p1 = induced_partition(d["c1"], d)
            assert is_coarser(p0, p1)

    def test_noisy_copy_mode_stays_close(self):
        # a relabeled copy with at most one flipped row: the two label
        # sequences must disagree in at most one position after the
        # bijective rename is undone, which bounds the block edit size
        for seed in range(25):
            d = gen_dataset(GenConfig(seed=seed, correlation_mode="noisy-copy"), 2)
            base, copy = d["c0"].labels, d["c1"].labels
            rename = {}
            mismatches = 0
            for a, b in zip(base, copy):
                if a in rename and rename[a] != b:
                    mismatches += 1
                else:
                    rename.setdefault(a, b)
            assert mismatches <= 1

    def test_independent_mode_uses_fresh_draws(self):
        d = gen_dataset(
            GenConfig(seed=1, rows=(40, 40), alphabet_size=(4, 4),
                      correlation_mode="independent"),
            2,
        )
        assert d["c0"].labels != d["c1"].labels

    def test_arbitrary_mode_eventually_emits_constants(self):
        saw_constant = False
        for seed in range(40):
            d = gen_dataset(GenConfig(seed=seed, rows=(6, 6)), 4)
            for nm in d.names[1:]:
                if set(d[nm].labels) == {"k0"}:
                    saw_constant = True
        assert saw_constant

    def test_all_modes_produce_valid_datasets(self):
        for mode in MODES:
            d = gen_dataset(GenConfig(seed=7, correlation_mode=mode), 3)
            assert d.row_count >= 2
            assert float(sum(d.row_weights)) == pytest.approx(1.0, abs=1e-12)
