"""Tests for utils, bench harness, and reporting modules."""

import numpy as np
import pytest

from benchmarks.harness import (
    bench_config,
    label_group_indices,
    majority_label,
    make_explainers,
    timed_explain,
)
from benchmarks.reporting import render_series, render_table, save_result
from repro.utils.rng import derive_seed, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fraction,
    check_in,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestRng:
    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_ensure_rng_from_int_deterministic(self):
        a = ensure_rng(5).integers(0, 100, 10)
        b = ensure_rng(5).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 3)
        assert len(rngs) == 3
        draws = [r.integers(0, 1_000_000) for r in rngs]
        assert len(set(draws)) > 1

    def test_spawn_rngs_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a") != derive_seed(1, "b")


class TestValidation:
    def test_positive(self):
        assert check_positive("x", 1) == 1
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_probability(self):
        assert check_probability("x", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("x", 1.1)

    def test_fraction(self):
        assert check_fraction("x", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_fraction("x", 0.0)

    def test_in(self):
        assert check_in("x", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError):
            check_in("x", "c", ("a", "b"))


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table("T", ["col", "value"], [["a", 1.23456], ["bb", 2]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text  # floats formatted to 3 decimals
        assert "bb" in text

    def test_render_series(self):
        text = render_series("S", "x", [1, 2], {"m": [0.1, 0.2]})
        assert "m" in text and "0.100" in text

    def test_save_result(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_result("unit_test", "hello")
        assert path.read_text() == "hello\n"
        assert path.parent == tmp_path


class TestHarness:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.datasets.zoo import get_trained

        return get_trained("pcqm4m", scale="test", seed=0)

    def test_bench_config_bounds(self):
        config = bench_config(upper=9)
        assert config.default_coverage.upper == 9

    def test_make_explainers_subset(self, setup):
        exps = make_explainers(setup, ["AG", "RND"])
        assert set(exps) == {"AG", "RND"}

    def test_majority_label_valid(self, setup):
        label = majority_label(setup)
        assert label in range(setup.model.n_classes)

    def test_label_group_indices_limit(self, setup):
        label = majority_label(setup)
        idx = label_group_indices(setup, label, limit=2)
        assert len(idx) <= 2
        for i in idx:
            assert setup.model.predict(setup.db[i]) == label

    def test_timed_explain_budget(self, setup):
        run = timed_explain(
            setup, "AG", upper=4, graphs=2, budget_seconds=60.0
        )
        assert not run.timed_out
        assert run.explanations >= 1

    def test_timed_explain_tiny_budget_flags_timeout(self, setup):
        run = timed_explain(
            setup, "SX", upper=4, graphs=4, budget_seconds=0.0
        )
        assert run.timed_out
