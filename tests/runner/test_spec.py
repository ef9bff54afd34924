"""Sweep spec expansion and seeding."""

import pytest

from repro.runner import SweepCell, SweepSpec, canonical_json
from repro.runner.spec import spawn_seeds


class TestExpansion:
    def test_grid_cross_product_in_key_order(self):
        spec = SweepSpec(
            name="g",
            kind="fixed_config",
            base={"workload": "wordcount"},
            grid={"batch_interval": [2.0, 4.0], "num_executors": [5, 10]},
        )
        cells = spec.expand()
        combos = [
            (c.param_dict["batch_interval"], c.param_dict["num_executors"])
            for c in cells
        ]
        # First grid key is the outer loop.
        assert combos == [(2.0, 5), (2.0, 10), (4.0, 5), (4.0, 10)]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert len(spec) == 4

    def test_base_merges_into_every_cell(self):
        spec = SweepSpec(
            name="b", kind="nostop",
            base={"workload": "wordcount", "rounds": 5},
            grid={"seed": [1, 2]},
        )
        for cell in spec.expand():
            assert cell.param_dict["workload"] == "wordcount"
            assert cell.param_dict["rounds"] == 5

    def test_cases_append_after_grid(self):
        spec = SweepSpec(
            name="c", kind="fixed_config",
            base={"workload": "wordcount"},
            grid={"batch_interval": [2.0]},
            cases=[{"batch_interval": 99.0}],
        )
        cells = spec.expand()
        assert [c.param_dict["batch_interval"] for c in cells] == [2.0, 99.0]

    def test_case_overrides_base(self):
        spec = SweepSpec(
            name="o", kind="nostop",
            base={"workload": "wordcount", "rounds": 5},
            cases=[{"rounds": 9}],
        )
        assert spec.expand()[0].param_dict["rounds"] == 9

    def test_empty_grid_and_cases_yields_single_cell(self):
        spec = SweepSpec(name="one", kind="nostop", base={"seed": 3})
        cells = spec.expand()
        assert len(cells) == 1
        assert cells[0].param_dict == {"seed": 3}

    def test_empty_grid_values_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(name="x", kind="nostop", grid={"seed": []})

    def test_non_sequence_grid_values_rejected(self):
        with pytest.raises(TypeError):
            SweepSpec(name="x", kind="nostop", grid={"seed": 5})


class TestSeeding:
    def test_spawned_seeds_are_stable_and_distinct(self):
        a = spawn_seeds(42, 8)
        b = spawn_seeds(42, 8)
        assert a == b
        assert len(set(a)) == 8
        assert spawn_seeds(43, 8) != a

    def test_spawned_seed_i_independent_of_total(self):
        # Prefix stability: adding cells never reshuffles earlier seeds.
        assert spawn_seeds(7, 3) == spawn_seeds(7, 10)[:3]

    def test_base_seed_injects_missing_seeds(self):
        spec = SweepSpec(
            name="s", kind="nostop",
            base={"workload": "wordcount"},
            grid={"rounds": [3, 4, 5]},
            base_seed=11,
        )
        seeds = [c.param_dict["seed"] for c in spec.expand()]
        assert seeds == spawn_seeds(11, 3)

    def test_pinned_seed_wins_over_base_seed(self):
        spec = SweepSpec(
            name="p", kind="nostop",
            base={"workload": "wordcount"},
            cases=[{"seed": 101}, {"rounds": 5}],
            base_seed=11,
        )
        cells = spec.expand()
        assert cells[0].param_dict["seed"] == 101
        assert cells[1].param_dict["seed"] == spawn_seeds(11, 2)[1]

    def test_no_base_seed_leaves_cells_unseeded(self):
        spec = SweepSpec(name="n", kind="nostop", grid={"rounds": [3]})
        assert "seed" not in spec.expand()[0].param_dict


class TestCanonical:
    def test_canonical_is_order_insensitive(self):
        a = SweepCell.make(0, "nostop", {"x": 1, "y": 2})
        b = SweepCell.make(5, "nostop", {"y": 2, "x": 1})
        assert a.canonical() == b.canonical()

    def test_canonical_distinguishes_kind_and_params(self):
        a = SweepCell.make(0, "nostop", {"x": 1})
        assert a.canonical() != SweepCell.make(0, "bo", {"x": 1}).canonical()
        assert a.canonical() != SweepCell.make(0, "nostop", {"x": 2}).canonical()

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
