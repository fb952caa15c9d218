"""Per-rule fixtures: each rule fires on a minimal bad snippet and stays
quiet on the idiomatic good one."""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools import lint_source

LIB = "src/repro/somepkg/mod.py"  # classified as library code
SCRIPT = "benchmarks/bench_fake.py"  # classified as script


def lint(source: str, path: str = LIB, rules=None):
    return lint_source(textwrap.dedent(source), path=path, rule_ids=rules)


def rule_ids(diags):
    return [d.rule for d in diags]


# ---------------------------------------------------------------- rng-factory
class TestRngFactory:
    def test_direct_default_rng_fires(self):
        diags = lint(
            """
            import numpy as np
            gen = np.random.default_rng(0)
            """,
            rules=["rng-factory"],
        )
        assert rule_ids(diags) == ["rng-factory"]
        assert diags[0].line == 3

    def test_stdlib_random_import_fires(self):
        diags = lint("import random\n", rules=["rng-factory"])
        assert rule_ids(diags) == ["rng-factory"]

    def test_from_random_import_fires(self):
        diags = lint("from random import shuffle\n", rules=["rng-factory"])
        assert rule_ids(diags) == ["rng-factory"]

    def test_from_numpy_random_import_fires(self):
        diags = lint(
            "from numpy.random import default_rng\n", rules=["rng-factory"]
        )
        assert rule_ids(diags) == ["rng-factory"]

    def test_numpy_alias_tracked(self):
        diags = lint(
            """
            import numpy
            x = numpy.random.standard_normal(3)
            """,
            rules=["rng-factory"],
        )
        assert rule_ids(diags) == ["rng-factory"]

    def test_good_as_generator_quiet(self):
        diags = lint(
            """
            from repro.util.rng import as_generator
            gen = as_generator(0)
            x = gen.random(3)
            """,
            rules=["rng-factory"],
        )
        assert diags == []

    def test_type_references_allowed(self):
        diags = lint(
            """
            import numpy as np

            def f(gen: np.random.Generator) -> np.random.Generator:
                assert isinstance(gen, np.random.Generator)
                return gen
            """,
            rules=["rng-factory"],
        )
        assert diags == []

    def test_rng_module_itself_exempt(self):
        diags = lint(
            """
            import numpy as np
            gen = np.random.default_rng(0)
            """,
            path="src/repro/util/rng.py",
            rules=["rng-factory"],
        )
        assert diags == []


# ---------------------------------------------------------------- rng-coerce
class TestRngCoerce:
    def test_drawing_from_raw_rng_param_fires(self):
        diags = lint(
            """
            def sample(k, rng=None):
                return rng.random(k)
            """,
            rules=["rng-coerce"],
        )
        assert rule_ids(diags) == ["rng-coerce"]

    def test_coerced_param_quiet(self):
        diags = lint(
            """
            from repro.util.rng import as_generator

            def sample(k, rng=None):
                gen = as_generator(rng)
                return gen.random(k)
            """,
            rules=["rng-coerce"],
        )
        assert diags == []

    def test_generator_annotated_param_quiet(self):
        diags = lint(
            """
            import numpy as np

            def sample(k, rng: np.random.Generator):
                return rng.random(k)
            """,
            rules=["rng-coerce"],
        )
        assert diags == []

    def test_no_arg_as_generator_fires(self):
        diags = lint(
            """
            from repro.util.rng import as_generator

            def sample(k):
                gen = as_generator()
                return gen.random(k)
            """,
            rules=["rng-coerce"],
        )
        assert rule_ids(diags) == ["rng-coerce"]


# -------------------------------------------------------------- units-mixing
class TestUnitsMixing:
    def test_adding_bytes_to_blocks_fires(self):
        diags = lint(
            "total = cache_bytes + cache_blocks\n", rules=["units-mixing"]
        )
        assert rule_ids(diags) == ["units-mixing"]

    def test_comparing_bytes_to_blocks_fires(self):
        diags = lint(
            "ok = size_B < capacity_blocks\n", rules=["units-mixing"]
        )
        assert rule_ids(diags) == ["units-mixing"]

    def test_explicit_conversion_quiet(self):
        diags = lint(
            """
            capacity_blocks = cache_bytes // block_size_bytes
            total_blocks = capacity_blocks + spare_blocks
            """,
            rules=["units-mixing"],
        )
        assert diags == []

    def test_attribute_suffixes_checked(self):
        diags = lint(
            "x = profile.total_bytes - machine.cache_blocks\n",
            rules=["units-mixing"],
        )
        assert rule_ids(diags) == ["units-mixing"]


# ------------------------------------------------------------ float-equality
class TestFloatEquality:
    def test_float_literal_eq_in_analysis_fires(self):
        diags = lint(
            "ok = ratio == 1.5\n",
            path="src/repro/analysis/mod.py",
            rules=["float-equality"],
        )
        assert rule_ids(diags) == ["float-equality"]

    def test_float_call_neq_in_analysis_fires(self):
        diags = lint(
            "ok = float(x) != y\n",
            path="src/repro/analysis/mod.py",
            rules=["float-equality"],
        )
        assert rule_ids(diags) == ["float-equality"]

    def test_isclose_in_analysis_quiet(self):
        diags = lint(
            """
            import math
            ok = math.isclose(ratio, 1.5, rel_tol=1e-9)
            """,
            path="src/repro/analysis/mod.py",
            rules=["float-equality"],
        )
        assert diags == []

    def test_int_equality_in_analysis_quiet(self):
        diags = lint(
            "ok = boxes == 8\n",
            path="src/repro/analysis/mod.py",
            rules=["float-equality"],
        )
        assert diags == []

    def test_outside_analysis_not_checked(self):
        diags = lint("ok = ratio == 1.5\n", rules=["float-equality"])
        assert diags == []


# ---------------------------------------------------------- frozen-dataclass
class TestFrozenDataclass:
    def test_unfrozen_result_fires(self):
        diags = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class SweepResult:
                value: float
            """,
            rules=["frozen-dataclass"],
        )
        assert rule_ids(diags) == ["frozen-dataclass"]

    def test_unfrozen_record_call_form_fires(self):
        diags = lint(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class TrialRecord:
                value: float
            """,
            rules=["frozen-dataclass"],
        )
        assert rule_ids(diags) == ["frozen-dataclass"]

    def test_frozen_result_quiet(self):
        diags = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepResult:
                value: float
            """,
            rules=["frozen-dataclass"],
        )
        assert diags == []

    def test_non_dataclass_record_quiet(self):
        diags = lint(
            """
            class TraceRecorder:
                def __init__(self):
                    self.events = []
            """,
            rules=["frozen-dataclass"],
        )
        assert diags == []


# ----------------------------------------------------------- mutable-default
class TestMutableDefault:
    def test_list_literal_default_fires(self):
        diags = lint(
            """
            def collect(items=[]):
                return items
            """,
            rules=["mutable-default"],
        )
        assert rule_ids(diags) == ["mutable-default"]

    def test_dict_constructor_kwonly_default_fires(self):
        diags = lint(
            """
            def collect(*, cache=dict()):
                return cache
            """,
            rules=["mutable-default"],
        )
        assert rule_ids(diags) == ["mutable-default"]

    def test_none_default_quiet(self):
        diags = lint(
            """
            def collect(items=None):
                return list(items or ())
            """,
            rules=["mutable-default"],
        )
        assert diags == []


# ----------------------------------------------------------- module-exports
class TestModuleExports:
    def test_library_module_without_all_fires(self):
        diags = lint("def run():\n    pass\n", rules=["module-exports"])
        assert rule_ids(diags) == ["module-exports"]

    def test_script_without_all_quiet(self):
        diags = lint(
            "def main():\n    pass\n", path=SCRIPT, rules=["module-exports"]
        )
        assert diags == []

    def test_dangling_entry_fires(self):
        diags = lint(
            '__all__ = ["missing"]\n', rules=["module-exports"]
        )
        assert rule_ids(diags) == ["module-exports"]
        assert "never binds" in diags[0].message

    def test_duplicate_entry_fires(self):
        diags = lint(
            """
            __all__ = ["run", "run"]

            def run():
                pass
            """,
            rules=["module-exports"],
        )
        assert rule_ids(diags) == ["module-exports"]
        assert "duplicate" in diags[0].message

    def test_unlisted_public_def_fires(self):
        diags = lint(
            """
            __all__ = ["run"]

            def run():
                pass

            def helper():
                pass
            """,
            rules=["module-exports"],
        )
        assert rule_ids(diags) == ["module-exports"]
        assert "helper" in diags[0].message

    def test_complete_module_quiet(self):
        diags = lint(
            """
            __all__ = ["CONSTANT", "run"]

            CONSTANT = 3

            def run():
                pass

            def _private_helper():
                pass
            """,
            rules=["module-exports"],
        )
        assert diags == []

    def test_pep562_getattr_exempts_dangling(self):
        diags = lint(
            """
            __all__ = ["lazy_thing"]

            def __getattr__(name):
                raise AttributeError(name)
            """,
            rules=["module-exports"],
        )
        assert diags == []

    def test_tests_and_dunder_main_exempt(self):
        source = "def run():\n    pass\n"
        assert lint(source, path="tests/test_mod.py", rules=["module-exports"]) == []
        assert (
            lint(source, path="src/repro/__main__.py", rules=["module-exports"])
            == []
        )


# ---------------------------------------------------- wallclock-discipline
class TestWallclockDiscipline:
    def test_time_time_call_fires(self):
        diags = lint(
            """
            import time

            t0 = time.time()
            """,
            rules=["wallclock-discipline"],
        )
        assert rule_ids(diags) == ["wallclock-discipline"]
        assert diags[0].line == 4

    def test_from_time_import_time_fires(self):
        diags = lint("from time import time\n", rules=["wallclock-discipline"])
        assert rule_ids(diags) == ["wallclock-discipline"]

    def test_aliased_module_tracked(self):
        diags = lint(
            """
            import time as clock

            start = clock.time()
            """,
            rules=["wallclock-discipline"],
        )
        assert rule_ids(diags) == ["wallclock-discipline"]

    def test_bare_reference_fires_without_call(self):
        diags = lint(
            """
            import time

            timer = time.time
            """,
            rules=["wallclock-discipline"],
        )
        assert rule_ids(diags) == ["wallclock-discipline"]

    def test_good_perf_counter_quiet(self):
        diags = lint(
            """
            import time

            t0 = time.perf_counter()
            dt = time.perf_counter() - t0
            m = time.monotonic()
            """,
            rules=["wallclock-discipline"],
        )
        assert diags == []

    def test_from_time_import_perf_counter_quiet(self):
        diags = lint(
            "from time import monotonic, perf_counter\n",
            rules=["wallclock-discipline"],
        )
        assert diags == []

    def test_unrelated_time_attribute_quiet(self):
        diags = lint(
            """
            class Clock:
                def time(self):
                    return 0

            value = Clock().time()
            total_time = profile.total_time
            """,
            rules=["wallclock-discipline"],
        )
        assert diags == []

    def test_applies_to_scripts_too(self):
        diags = lint(
            "import time\n\nt = time.time()\n",
            path=SCRIPT,
            rules=["wallclock-discipline"],
        )
        assert rule_ids(diags) == ["wallclock-discipline"]


# ------------------------------------------------------- profile-discipline
class TestProfileDiscipline:
    def test_list_literal_boxes_fires(self):
        diags = lint(
            "run_boxes(spec, 64, [4, 4, 4])\n",
            rules=["profile-discipline"],
        )
        assert rule_ids(diags) == ["profile-discipline"]
        assert "SquareProfile" in diags[0].message

    def test_comprehension_boxes_keyword_fires(self):
        diags = lint(
            "run_repeated(spec, 64, boxes=[m for m in sizes])\n",
            rules=["profile-discipline"],
        )
        assert rule_ids(diags) == ["profile-discipline"]

    def test_generator_expression_fires(self):
        diags = lint(
            "run_adaptive(spec, 64, (m for m in sizes))\n",
            rules=["profile-discipline"],
        )
        assert rule_ids(diags) == ["profile-discipline"]

    def test_iter_call_on_simulator_method_fires(self):
        diags = lint(
            "sim.run(iter([1, 2, 4]))\n",
            rules=["profile-discipline"],
        )
        assert rule_ids(diags) == ["profile-discipline"]

    def test_run_to_completion_range_fires_any_receiver(self):
        diags = lint(
            "machine.run_to_completion(range(8))\n",
            rules=["profile-discipline"],
        )
        assert rule_ids(diags) == ["profile-discipline"]

    def test_profile_variable_quiet(self):
        diags = lint(
            """
            profile = worst_case_profile(2, 2, 64)
            run_boxes(spec, 64, profile)
            """,
            rules=["profile-discipline"],
        )
        assert diags == []

    def test_constructor_calls_quiet(self):
        diags = lint(
            """
            run_boxes(spec, 64, SquareProfile([1, 2, 4]))
            run_repeated(spec, 64, worst_case_boxes(2, 2, 64))
            """,
            rules=["profile-discipline"],
        )
        assert diags == []

    def test_itertools_repeat_quiet(self):
        diags = lint(
            """
            import itertools

            sim.run(itertools.repeat(box))
            """,
            rules=["profile-discipline"],
        )
        assert diags == []

    def test_non_simulator_run_method_quiet(self):
        diags = lint(
            "runner.run([\"fig1\", \"mmcount\"])\n",
            rules=["profile-discipline"],
        )
        assert diags == []

    def test_applies_to_library_code_too(self):
        diags = lint(
            "run_boxes(spec, 64, [4, 4, 4])\n",
            path=LIB.replace("mod.py", "sweep.py"),
            rules=["profile-discipline"],
        )
        assert rule_ids(diags) == ["profile-discipline"]

    def test_bare_chain_of_cycle_fires(self):
        diags = lint(
            """
            from itertools import chain, cycle

            sim.run_to_completion(chain(iter(profile), cycle(profile.boxes.tolist())))
            """,
            rules=["profile-discipline"],
        )
        assert rule_ids(diags) == ["profile-discipline"]
        message = diags[0].message
        assert "chain(...)" in message
        for constructor in ("cycled", "sampled", "perturbed_limit", "order_perturbed"):
            assert constructor in message

    def test_itertools_cycle_and_chain_fire(self):
        diags = lint(
            """
            import itertools

            run_adaptive(spec, 64, itertools.cycle(boxes))
            sim.run(itertools.chain(iter(shuffled), empirical.sampler(g)))
            run_boxes(spec, 64, boxes=itertools.chain(head, tail))
            """,
            rules=["profile-discipline"],
        )
        assert rule_ids(diags) == ["profile-discipline"] * 3
        assert "cycle(...)" in diags[0].message

    def test_box_source_constructors_quiet(self):
        diags = lint(
            """
            sim.run_to_completion(cycled(profile))
            sim.run(sampled(dist, g, head=g.permutation(base.boxes)))
            run_adaptive(spec, 64, cycled(profile, first=shifted))
            run_boxes(spec, 64, order_perturbed(8, 4, 64, rng=g))
            """,
            rules=["profile-discipline"],
        )
        assert diags == []

    def test_chain_method_on_other_receiver_quiet(self):
        diags = lint(
            "sim.run(profiles.chain(first, second))\n",
            rules=["profile-discipline"],
        )
        assert diags == []


# ------------------------------------------------------------ rng-discipline
SIM = "src/repro/simulation/mod.py"  # inside the replay-critical layers


class TestRngDiscipline:
    def test_positional_draw_next_to_stream_param_fires(self):
        diags = lint(
            """
            def sample(stream, gen):
                u = stream.uniforms_at(0, 4)
                return gen.random(4)
            """,
            path=SIM,
            rules=["rng-discipline"],
        )
        assert rule_ids(diags) == ["rng-discipline"]
        assert "gen.random" in diags[0].message

    def test_stream_annotation_triggers_scope(self):
        diags = lint(
            """
            def sample(s: ReplayableStream, rng):
                return rng.integers(0, 8)
            """,
            path=SIM,
            rules=["rng-discipline"],
        )
        assert rule_ids(diags) == ["rng-discipline"]

    def test_local_substream_triggers_scope(self):
        diags = lint(
            """
            def trial(root, t, gen):
                ts = root.for_trial(t)
                return gen.uniform(0.0, 1.0)
            """,
            path=SIM,
            rules=["rng-discipline"],
        )
        assert rule_ids(diags) == ["rng-discipline"]

    def test_addressed_draws_quiet(self):
        diags = lint(
            """
            def sample(stream):
                u = stream.uniforms_at(0, 4)
                k = stream.integers_at(0, 4, 1, 9)
                return u, k
            """,
            path=SIM,
            rules=["rng-discipline"],
        )
        assert diags == []

    def test_no_stream_in_scope_quiet(self):
        # purely positional functions (legacy API) are rng-coerce's
        # business, not this rule's
        diags = lint(
            """
            def sample(k, gen):
                return gen.random(k)
            """,
            path=SIM,
            rules=["rng-discipline"],
        )
        assert diags == []

    def test_outside_critical_layers_quiet(self):
        diags = lint(
            """
            def sample(stream, gen):
                u = stream.uniforms_at(0, 4)
                return gen.random(4)
            """,
            path="src/repro/analysis/mod.py",
            rules=["rng-discipline"],
        )
        assert diags == []

    def test_profiles_layer_also_covered(self):
        diags = lint(
            """
            def sample(stream, gen):
                return gen.choice(gen.permutation(4))
            """,
            path="src/repro/profiles/mod.py",
            rules=["rng-discipline"],
        )
        assert rule_ids(diags) == ["rng-discipline", "rng-discipline"]

    def test_line_pragma_suppresses_legacy_branch(self):
        diags = lint(
            """
            def sample(stream, gen, legacy):
                if legacy:
                    return gen.random(4)  # repro-lint: disable=rng-discipline
                return stream.uniforms_at(0, 4)
            """,
            path=SIM,
            rules=["rng-discipline"],
        )
        assert diags == []


# ------------------------------------------------- each bad fixture, exactly
# one rule: running the FULL rule set over each snippet must produce only the
# intended rule id (the acceptance criterion for deliberately-seeded bugs).
SEEDED_VIOLATIONS = {
    "rng-factory": (SCRIPT, "import numpy as np\n\ngen = np.random.default_rng(0)\n"),
    "rng-coerce": (SCRIPT, "def sample(k, rng=None):\n    return rng.random(k)\n"),
    "rng-discipline": (
        SIM,
        '__all__ = ["sample"]\n\n\n'
        "def sample(stream, gen):\n"
        "    u = stream.uniforms_at(0, 4)\n"
        "    return gen.random(4)\n",
    ),
    "units-mixing": (SCRIPT, "total = cache_bytes + cache_blocks\n"),
    "float-equality": ("src/repro/analysis/mod.py", "__all__ = []\nok = ratio == 1.5\n"),
    "frozen-dataclass": (
        SCRIPT,
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass SweepResult:\n    value: float\n",
    ),
    "mutable-default": (SCRIPT, "def collect(items=[]):\n    return items\n"),
    "module-exports": (LIB, '__all__ = ["missing"]\n'),
    "wallclock-discipline": (SCRIPT, "import time\n\nt0 = time.time()\n"),
    "profile-discipline": (SCRIPT, "run_boxes(spec, 64, [4, 4, 4])\n"),
}


@pytest.mark.parametrize("expected_rule", sorted(SEEDED_VIOLATIONS))
def test_seeded_violation_detected_by_exactly_the_intended_rule(expected_rule):
    path, source = SEEDED_VIOLATIONS[expected_rule]
    diags = lint_source(source, path=path)
    assert [d.rule for d in diags] == [expected_rule]
