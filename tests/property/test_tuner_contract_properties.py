"""Property-based tests: every tuner resumes exactly from any checkpoint.

``tests/tuners/test_conformance.py`` checks the ``Tuner`` contract on
fixed sequences.  Here Hypothesis drives random interleavings of
``ask``, ``observe``, ``checkpoint`` and ``restore`` — a checkpoint may
fall between an ``ask`` and its ``observe`` — for all seven tuners,
plus NoStop's one-measurement and averaged estimators (a checkpoint may
then fall between the pairs of one iteration).  A reference tuner runs the same ask/observe sequence with no interruption.
On ``restore``, a tuner built with another seed takes the latest
snapshot and replays the steps taken since it; every ``ask`` it makes
must equal the reference's, and so must its final checkpoint and its
next ``ask``.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tuners import NoStopTuner, make_tuner, tournament_space, tuner_names

from ..tuners.test_conformance import _evaluated, _synthetic

#: (registered name, NoStop ``probes`` or None): every tuner, plus the
#: non-default SPSA estimators.
ROSTER = [(name, None) for name in tuner_names()] + [
    ("nostop", 1),
    ("nostop", 4),
]
SPACE = tournament_space()


def _build(entry, seed):
    name, probes = entry
    if probes is None:
        return make_tuner(name, SPACE, seed=seed)
    return NoStopTuner(SPACE, seed=seed, probes=probes)


def _apply(tuner, step):
    """Replay one half-step: an ``ask`` must propose the recorded θ."""
    kind, theta, iteration = step
    if kind == "ask":
        np.testing.assert_array_equal(SPACE.scaled.project(tuner.ask()), theta)
    else:
        y = _synthetic(theta)
        tuner.observe(theta, y, _evaluated(theta, y, iteration))


def _state(tuner):
    return json.dumps(tuner.checkpoint(), sort_keys=True)


class TestTunerContract:
    @settings(max_examples=150, deadline=None)
    @given(
        entry=st.sampled_from(ROSTER),
        seed=st.integers(0, 2**16),
        ops=st.lists(
            st.sampled_from(["step", "step", "step", "checkpoint", "restore"]),
            max_size=48,
        ),
    )
    def test_restored_tuner_asks_what_the_original_asks(self, entry, seed, ops):
        reference = _build(entry, seed)
        live = _build(entry, seed)
        steps = []  # the reference's half-steps, alternating ask/observe
        snapshot = None  # (JSON round-tripped checkpoint, len(steps))
        for op in ops:
            if op == "step":
                k = len(steps)
                if k % 2 == 0:
                    if reference.exhausted:
                        assert live.exhausted
                        continue
                    theta = SPACE.scaled.project(reference.ask())
                    step = ("ask", theta, k // 2 + 1)
                else:
                    step = ("observe", steps[-1][1], k // 2 + 1)
                    _apply(reference, step)
                _apply(live, step)
                steps.append(step)
            elif op == "checkpoint":
                state = json.loads(json.dumps(live.checkpoint()))
                snapshot = (state, len(steps))
            elif snapshot is not None:
                state, taken = snapshot
                live = _build(entry, seed + 1)
                live.restore(state)
                for step in steps[taken:]:
                    _apply(live, step)

        assert _state(live) == _state(reference)
        if len(steps) % 2 == 0 and not reference.exhausted:
            np.testing.assert_array_equal(live.ask(), reference.ask())
