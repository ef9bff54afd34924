"""Linter: each rule fires on its hazard, stays quiet on the seeded/
ordered idioms and the references the codebase actually uses, and honors
pragmas."""

from pathlib import Path

import pytest

from repro.check.lint import lint_paths, lint_source


def rules(src):
    return [f.rule for f in lint_source(src)]


class TestDet001UnseededRandomness:
    def test_unseeded_default_rng_flagged(self):
        assert rules(
            "import numpy as np\nrng = np.random.default_rng()\n"
        ) == ["DET001"]

    def test_seeded_default_rng_clean(self):
        assert rules(
            "import numpy as np\nrng = np.random.default_rng(42)\n"
        ) == []

    def test_seeded_tuple_rng_clean(self):
        # The codebase's stream-splitting idiom.
        assert rules(
            "from numpy.random import default_rng\n"
            "rng = default_rng((seed, idx))\n"
        ) == []

    def test_global_numpy_functions_flagged(self):
        assert rules(
            "import numpy as np\nx = np.random.normal(0, 1)\n"
        ) == ["DET001"]

    def test_module_level_random_flagged(self):
        assert rules("import random\nx = random.random()\n") == ["DET001"]
        assert rules("import random\nx = random.shuffle(xs)\n") == ["DET001"]

    def test_seeded_random_instance_clean(self):
        assert rules("import random\nr = random.Random(7)\n") == []

    def test_unseeded_random_instance_flagged(self):
        assert rules("import random\nr = random.Random()\n") == ["DET001"]

    def test_entropy_sources_flagged(self):
        assert rules("import os\nx = os.urandom(8)\n") == ["DET001"]
        assert rules("import uuid\nx = uuid.uuid4()\n") == ["DET001"]

    def test_import_alias_resolved(self):
        assert rules(
            "import numpy.random as npr\nx = npr.randint(3)\n"
        ) == ["DET001"]

    def test_explicit_none_seed_flagged(self):
        # default_rng(None) / default_rng(seed=None) are just spelled-out
        # OS-entropy seeds.
        assert rules(
            "import numpy as np\nrng = np.random.default_rng(None)\n"
        ) == ["DET001"]
        assert rules(
            "import numpy as np\nrng = np.random.default_rng(seed=None)\n"
        ) == ["DET001"]

    def test_unseeded_bit_generator_flagged(self):
        assert rules(
            "import numpy as np\nbg = np.random.PCG64()\n"
        ) == ["DET001"]
        assert rules(
            "import numpy as np\nbg = np.random.MT19937(seed=None)\n"
        ) == ["DET001"]

    def test_generator_wrapping_unseeded_bit_generator_flagged(self):
        # Generator(bg) itself has an argument, but the nested PCG64()
        # construction is where the OS entropy sneaks in.
        assert rules(
            "import numpy as np\n"
            "g = np.random.Generator(np.random.PCG64())\n"
        ) == ["DET001"]

    def test_seeded_bit_generator_clean(self):
        assert rules(
            "import numpy as np\n"
            "g = np.random.Generator(np.random.PCG64(12))\n"
        ) == []
        assert rules(
            "import numpy as np\nbg = np.random.Philox(seed=3)\n"
        ) == []


class TestDet002WallClock:
    def test_time_time_flagged(self):
        assert rules("import time\nt = time.time()\n") == ["DET002"]

    def test_perf_counter_flagged(self):
        assert rules("import time\nt = time.perf_counter()\n") == ["DET002"]

    def test_from_import_flagged(self):
        assert rules("from time import time\nt = time()\n") == ["DET002"]

    def test_datetime_now_flagged(self):
        assert rules(
            "from datetime import datetime\nt = datetime.now()\n"
        ) == ["DET002"]
        assert rules(
            "import datetime\nt = datetime.datetime.utcnow()\n"
        ) == ["DET002"]

    def test_reference_as_default_argument_flagged(self):
        # Deferred reads hide in default args and callbacks.
        assert rules(
            "import time\n"
            "def f(clock=time.perf_counter):\n"
            "    return clock()\n"
        ) == ["DET002"]

    def test_simulated_time_attribute_clean(self):
        assert rules("t = context.time\n") == []
        assert rules("t = self.clock()\n") == []


class TestDet003UnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        assert rules(
            "for x in {1, 2, 3}:\n    out.append(x)\n"
        ) == ["DET003"]

    def test_for_over_set_call_flagged(self):
        assert rules(
            "for x in set(names):\n    out.append(x)\n"
        ) == ["DET003"]

    def test_comprehension_over_set_flagged(self):
        assert rules("out = [x for x in {1, 2}]\n") == ["DET003"]

    def test_dict_comprehension_over_set_flagged(self):
        # Dicts keep insertion order, so the set's hash order leaks out.
        assert rules("d = {k: 1 for k in set(xs)}\n") == ["DET003"]

    def test_list_of_set_flagged(self):
        assert rules("out = list({1, 2})\n") == ["DET003"]

    def test_sorted_set_clean(self):
        # sorting launders the hash order away — the canonical fix.
        assert rules("for x in sorted(set(names)):\n    f(x)\n") == []
        assert rules("out = sorted({1, 2})\n") == []

    def test_join_over_set_flagged(self):
        assert rules("s = ', '.join({'a', 'b'})\n") == ["DET003"]

    def test_join_over_dict_view_flagged(self):
        assert rules("s = ', '.join(d.keys())\n") == ["DET003"]

    def test_dict_iteration_clean(self):
        # Dicts are insertion-ordered — iterating them is deterministic.
        assert rules("for k in d:\n    f(k)\n") == []
        assert rules("out = list(d.values())\n") == []
        assert rules("total = sum(d.values())\n") == []


class TestPragmas:
    def test_targeted_pragma_suppresses_its_rule(self):
        assert rules(
            "import time\n"
            "t = time.perf_counter()  # det: allow-wallclock\n"
        ) == []

    def test_targeted_pragma_does_not_suppress_other_rules(self):
        assert rules(
            "import time, random\n"
            "x = random.random()  # det: allow-wallclock\n"
        ) == ["DET001"]

    def test_blanket_pragma_suppresses_all(self):
        assert rules(
            "import random\nx = random.random()  # det: allow\n"
        ) == []


class TestPaths:
    def test_package_source_is_clean(self, package_lint):
        _, findings = package_lint
        assert findings == [], [f.format() for f in findings]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["/no/such/path"])

    def test_findings_are_ordered_and_formatted(self):
        src = "import time\na = time.time()\nb = time.time()\n"
        findings = lint_source(src, path="mod.py")
        assert [f.line for f in findings] == [2, 3]
        assert findings[0].format().startswith("mod.py:2:")
        assert findings[0].to_dict()["rule"] == "DET002"


class TestDead001UnusedSymbols:
    """``lint_paths`` on a ``src/`` package with consumer trees beside it."""

    @pytest.fixture
    def repo(self, tmp_path):
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from .mod import helper as alias\n__all__ = ['helper']\n"
        )
        (pkg / "mod.py").write_text("def helper():\n    return 1\n")
        for tree in ("benchmarks", "tests"):
            (tmp_path / tree).mkdir()
        return tmp_path

    def dead(self, repo):
        findings = lint_paths([repo / "src" / "pkg"])
        return [(Path(f.path).name, f.line, f.rule) for f in findings]

    def test_unreferenced_def_flagged(self, repo):
        # The import alias and the __all__ entry are not references.
        assert self.dead(repo) == [("mod.py", 1, "DEAD001")]

    def test_benchmark_use_clears_it(self, repo):
        (repo / "benchmarks" / "bench.py").write_text(
            "from pkg import mod\nmod.helper()\n"
        )
        assert self.dead(repo) == []

    def test_test_use_does_not_clear_it(self, repo):
        (repo / "tests" / "test_mod.py").write_text(
            "from pkg.mod import helper\nhelper()\n"
        )
        assert self.dead(repo) == [("mod.py", 1, "DEAD001")]

    def test_private_and_registered_symbols_exempt(self, repo):
        (repo / "src" / "pkg" / "mod.py").write_text(
            "def _private():\n    pass\n"
            "@register_tuner('x')\nclass XTuner:\n    pass\n"
        )
        assert self.dead(repo) == []

    def test_pragma_suppresses_it(self, repo):
        (repo / "src" / "pkg" / "mod.py").write_text(
            "def helper():  # det: allow-unused: README example\n"
            "    return 1\n"
        )
        assert self.dead(repo) == []

    BOX = (
        "class Box:\n"
        "    def method(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "Box()\n"
    )

    def test_unreferenced_method_and_property_flagged(self, repo):
        (repo / "src" / "pkg" / "mod.py").write_text(self.BOX)
        assert self.dead(repo) == [
            ("mod.py", 2, "DEAD001"), ("mod.py", 5, "DEAD001"),
        ]

    def test_benchmark_use_clears_a_member(self, repo):
        (repo / "src" / "pkg" / "mod.py").write_text(self.BOX)
        (repo / "benchmarks" / "bench.py").write_text(
            "from pkg.mod import Box\nBox().method()\nBox().size\n"
        )
        assert self.dead(repo) == []

    def test_perfbench_string_clears_a_member_but_package_string_does_not(
        self, repo
    ):
        (repo / "src" / "pkg" / "mod.py").write_text(
            self.BOX + "getattr(Box(), 'size')\n"
        )
        (repo / "perfbench").mkdir()
        (repo / "perfbench" / "run.py").write_text("ENTRY = 'method'\n")
        assert self.dead(repo) == [("mod.py", 5, "DEAD001")]

    def test_node_visitor_visit_methods_exempt(self, repo):
        (repo / "src" / "pkg" / "mod.py").write_text(
            "import ast\n"
            "class Finder(ast.NodeVisitor):\n"
            "    def visit_Name(self, node):\n"
            "        pass\n"
            "class Plain:\n"
            "    def visit_Name(self, node):\n"
            "        pass\n"
            "Finder(), Plain()\n"
        )
        assert self.dead(repo) == [("mod.py", 6, "DEAD001")]

    def test_export_read_only_by_its_own_module_flagged(self, repo):
        (repo / "src" / "pkg" / "__init__.py").write_text(
            "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
            "    'mod': ('helper', 'other'),\n"
            "})\n"
        )
        (repo / "src" / "pkg" / "mod.py").write_text(
            "def helper():\n    return other()\n"
            "def other():\n    return 1\n"
        )
        (repo / "benchmarks" / "bench.py").write_text(
            "from pkg import helper\nhelper()\n"
        )
        assert self.dead(repo) == [("__init__.py", 2, "DEAD001")]
        # A read from another module of the package keeps the export.
        (repo / "src" / "pkg" / "user.py").write_text(
            "from pkg.mod import other\nother()\n"
        )
        assert self.dead(repo) == []

    def test_pragma_suppresses_member_and_export_findings(self, repo):
        (repo / "src" / "pkg" / "__init__.py").write_text(
            "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
            "    'mod': ('Box',),  # det: allow-unused: README snippet\n"
            "})\n"
        )
        (repo / "src" / "pkg" / "mod.py").write_text(
            self.BOX
            .replace("(self):\n        return 1",
                     "(self):  # det: allow-unused: README\n        return 1")
            .replace("def size(self):",
                     "def size(self):  # det: allow-unused: README")
        )
        assert self.dead(repo) == []

    def test_subpackage_path_skips_the_rule(self, repo):
        sub = repo / "src" / "pkg" / "sub"
        sub.mkdir()
        (sub / "__init__.py").write_text("def orphan():\n    pass\n")
        assert lint_paths([sub]) == []
